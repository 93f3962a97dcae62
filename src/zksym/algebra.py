"""Graded Lie algebra engine.

A real Lie algebra is stored as a dense tensor of structure constants
``c[i, j, k]`` meaning ``[e_i, e_j] = sum_k c[i, j, k] e_k`` in a fixed,
canonical basis.  Every basis index carries a label in the group Z_2^k;
indices with the identity label span the isotropy subalgebra h, the rest
span the reductive complement m.

Vectors are plain numpy arrays in the canonical basis.  All objects are
immutable after construction and every operation is pure, so instances can
be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "GradedLieAlgebra",
    "GradingLabel",
    "ValidationReport",
    "algebra_from_dict",
    "algebra_to_dict",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class GradingLabel:
    """Element of Z_2^k encoded as k bits; the group law is bitwise XOR.

    The identity is the all-false label and every element is its own
    inverse.
    """

    bits: tuple[bool, ...]

    def __post_init__(self):
        bits = tuple(bool(b) for b in self.bits)
        if not bits:
            raise ValueError("grading label needs at least one bit")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def identity(cls, k: int) -> "GradingLabel":
        return cls((False,) * k)

    @property
    def k(self) -> int:
        return len(self.bits)

    @property
    def is_identity(self) -> bool:
        return not any(self.bits)

    def __mul__(self, other: "GradingLabel") -> "GradingLabel":
        if self.k != other.k:
            raise ValueError("labels belong to different groups")
        return GradingLabel(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on a graded Lie algebra.

    Each entry is an index triple that violates the named identity; an
    algebra is valid iff all three tuples are empty.  Residual maxima are
    reported so callers can judge how badly a check failed.
    """

    antisymmetry: tuple[tuple[int, int, int], ...]
    jacobi: tuple[tuple[int, int, int], ...]
    grading: tuple[tuple[int, int, int], ...]
    max_antisymmetry_residual: float
    max_jacobi_residual: float

    @property
    def ok(self) -> bool:
        return not (self.antisymmetry or self.jacobi or self.grading)

    def summary(self) -> str:
        if self.ok:
            return "valid"
        parts = []
        if self.antisymmetry:
            parts.append(f"{len(self.antisymmetry)} antisymmetry violation(s)")
        if self.jacobi:
            parts.append(f"{len(self.jacobi)} Jacobi violation(s)")
        if self.grading:
            parts.append(f"{len(self.grading)} grading-closure violation(s)")
        return "invalid: " + ", ".join(parts)


class GradedLieAlgebra:
    """Finite-dimensional real Lie algebra with a Z_2^k grading.

    Parameters
    ----------
    names : sequence of str
        Basis element names, fixing the canonical ordering.
    structure : (n, n, n) array_like
        Structure constants ``c[i, j, k]``.
    grading : sequence of GradingLabel
        Label of each basis index, all with the same k.
    """

    def __init__(self, names: Sequence[str], structure, grading: Sequence[GradingLabel]):
        names = tuple(str(n) for n in names)
        c = np.array(structure, dtype=float)
        grading = tuple(grading)
        n = len(names)
        if n == 0:
            raise ValueError("algebra needs a positive dimension")
        if c.shape != (n, n, n):
            raise ValueError(f"structure tensor must have shape {(n, n, n)}, got {c.shape}")
        if len(grading) != n:
            raise ValueError("need exactly one grading label per basis element")
        if len({lab.k for lab in grading}) != 1:
            raise ValueError("grading labels must share the same group Z_2^k")
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite")
        c.setflags(write=False)
        self.names = names
        self.structure = c
        self.grading = grading

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def k(self) -> int:
        return self.grading[0].k

    @property
    def identity_label(self) -> GradingLabel:
        return GradingLabel.identity(self.k)

    @property
    def labels(self) -> tuple[GradingLabel, ...]:
        """Distinct labels in order of first appearance."""
        seen: list[GradingLabel] = []
        for lab in self.grading:
            if lab not in seen:
                seen.append(lab)
        return tuple(seen)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def basis_vector(self, name: str) -> np.ndarray:
        v = np.zeros(self.dim)
        v[self.index(name)] = 1.0
        return v

    def label_indices(self, label: GradingLabel) -> tuple[int, ...]:
        return tuple(i for i, lab in enumerate(self.grading) if lab == label)

    @property
    def h_indices(self) -> tuple[int, ...]:
        """Indices spanning the isotropy subalgebra (identity label)."""
        return self.label_indices(self.identity_label)

    @property
    def m_indices(self) -> tuple[int, ...]:
        """Indices spanning the reductive complement."""
        e = self.identity_label
        return tuple(i for i, lab in enumerate(self.grading) if lab != e)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _check_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"vector must have shape ({self.dim},), got {x.shape}")
        return x

    def bracket(self, x, y) -> np.ndarray:
        """Lie bracket [x, y] of two coordinate vectors."""
        x = self._check_vector(x)
        y = self._check_vector(y)
        return np.einsum("i,j,ijk->k", x, y, self.structure)

    def project(self, x, labels: Iterable[GradingLabel]) -> np.ndarray:
        """Zero every coordinate whose basis label is outside ``labels``."""
        x = self._check_vector(x)
        wanted = set(labels)
        unknown = wanted - set(self.grading)
        if unknown:
            raise ValueError(f"labels not used by this algebra: {sorted(map(str, unknown))}")
        mask = np.array([lab in wanted for lab in self.grading])
        out = np.where(mask, x, 0.0)
        return out

    def project_m(self, x) -> np.ndarray:
        """Projection onto the reductive complement m."""
        e = self.identity_label
        return self.project(x, [lab for lab in self.labels if lab != e])

    def m_structure(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split the structure constants along h + m.

        Returns read-only (CM, CH, ADH), indexed within m and h in algebra
        order:
          CM[i, j, k]  m-component k of [m_i, m_j],
          CH[i, j, a]  h-component a of [m_i, m_j],
          ADH[a, l, k] m-component l of [h_a, m_k].
        """
        c = self.structure
        mi, hi = list(self.m_indices), list(self.h_indices)
        cm = c[np.ix_(mi, mi, mi)]
        ch = c[np.ix_(mi, mi, hi)]
        adh = c[np.ix_(hi, mi, mi)].transpose(0, 2, 1).copy()
        for arr in (cm, ch, adh):
            arr.setflags(write=False)
        return cm, ch, adh

    def validate(self, tol: float = 0.0) -> ValidationReport:
        """Check antisymmetry, the Jacobi identity and grading closure.

        ``tol`` is the absolute threshold below which a residual (or a
        structure constant, for the closure check) counts as zero.  With
        integer structure constants ``tol=0.0`` gives exact checks.
        """
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        c = self.structure
        n = self.dim
        idx = np.arange(n)

        anti = c + c.transpose(1, 0, 2)
        upper = (idx[:, None] <= idx[None, :])[:, :, None]
        anti_bad = np.argwhere((np.abs(anti) > tol) & upper)

        # jac[i, j, l, :] = [[e_i,e_j],e_l] + [[e_j,e_l],e_i] + [[e_l,e_i],e_j]
        c2 = np.einsum("ijm,mlk->ijlk", c, c)
        jac = c2 + c2.transpose(1, 2, 0, 3) + c2.transpose(2, 0, 1, 3)
        increasing = (idx[:, None, None] < idx[None, :, None]) & (idx[None, :, None] < idx[None, None, :])
        jac_bad = np.argwhere((np.max(np.abs(jac), axis=3) > tol) & increasing)

        # labels as integers, so the group law is XOR
        code = np.array([sum(int(b) << pos for pos, b in enumerate(lab.bits)) for lab in self.grading])
        off_target = (code[:, None] ^ code[None, :])[:, :, None] != code[None, None, :]
        grading_bad = np.argwhere((np.abs(c) > tol) & off_target)

        return ValidationReport(
            antisymmetry=_triples(anti_bad),
            jacobi=_triples(jac_bad),
            grading=_triples(grading_bad),
            max_antisymmetry_residual=float(np.max(np.abs(anti))),
            max_jacobi_residual=float(np.max(np.abs(jac))),
        )


def _triples(rows: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    return tuple(tuple(r) for r in rows.tolist())


# ----------------------------------------------------------------------
# JSON serialization
# ----------------------------------------------------------------------

def algebra_to_dict(alg: GradedLieAlgebra) -> dict:
    """Serializable document: {dim, names, grading, structure nonzeros}.

    Structure constants are stored as (i, j, k, value) rows; values that
    are integers round-trip bit-exactly through JSON.
    """
    nz = np.argwhere(alg.structure != 0.0)
    structure = [[*ijk, value] for ijk, value in zip(nz.tolist(), alg.structure[tuple(nz.T)].tolist())]
    return {
        "dim": alg.dim,
        "names": list(alg.names),
        "grading": [list(lab.bits) for lab in alg.grading],
        "structure": structure,
    }


def algebra_from_dict(data: dict) -> GradedLieAlgebra:
    """Inverse of :func:`algebra_to_dict`; a malformed document raises ValueError."""
    try:
        (n,) = _json_typed([data["dim"]], (int,), "dim must be an integer")
        names = data["names"]
        if type(names) is not list or len(set(_json_typed(names, (str,), "names must be strings"))) != len(names):
            raise ValueError(f"names must be a list of distinct strings, got {names!r}")
        grading = [GradingLabel(_json_typed(bits, (bool,), "grading bits must be booleans")) for bits in data["grading"]]
        if len(names) != n:
            raise ValueError("names length disagrees with dim")
        c = np.zeros((n, n, n))
        for row in data["structure"]:
            i, j, k, value = row
            if not (type(i) is type(j) is type(k) is int and type(value) in (int, float)):  # as in _json_typed
                raise ValueError(f"structure rows must hold three integers and a number, got {row!r}")
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError(f"structure index out of range: {(i, j, k)}")
            c[i, j, k] = float(value)
    except (KeyError, TypeError, OverflowError) as exc:  # float() of an int beyond the floats overflows
        raise ValueError(f"malformed algebra document: {exc}") from exc
    return GradedLieAlgebra(names, c, grading)


def _json_typed(values, types: tuple[type, ...], what: str) -> tuple:
    # exact JSON types: int() reads 2.7 and "2" as integers, Python counts a
    # bool as an int, and GradingLabel reads any truthy value as a set bit
    values = tuple(values)
    if not all(type(v) in types for v in values):
        raise ValueError(f"{what}, got {list(values)!r}")
    return values
