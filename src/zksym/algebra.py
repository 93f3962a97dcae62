"""Graded Lie algebra engine.

A real Lie algebra is stored as a dense tensor of structure constants
``c[i, j, k]`` meaning ``[e_i, e_j] = sum_k c[i, j, k] e_k`` in a fixed,
canonical basis.  Every basis index carries a label in the group Z_2^k;
indices with the identity label span the isotropy subalgebra h, the rest
span the reductive complement m.

Vectors are plain numpy arrays in the canonical basis.  All objects are
immutable after construction and every operation is pure, so instances can
be shared freely across threads.  The default tolerance DEFAULT_TOL lives in
:mod:`zksym.metric`, which loads without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _exports

__all__ = _exports(__name__)


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

    # --- basic queries ---
    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def k(self) -> int:
        return self.grading[0].k

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
        return self.label_indices(GradingLabel.identity(self.k))

    @property
    def m_indices(self) -> tuple[int, ...]:
        """Indices spanning the reductive complement."""
        e = GradingLabel.identity(self.k)
        return tuple(i for i, lab in enumerate(self.grading) if lab != e)

    # --- operations ---
    def bracket(self, x, y) -> np.ndarray:
        """Lie bracket [x, y] of two coordinate vectors."""
        return np.einsum("i,j,ijk->k", _vector(x, self.dim), _vector(y, self.dim), self.structure)

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
        integer structure constants ``tol=0.0`` gives exact checks.  The
        Jacobi terms are one matrix product and its two cyclic rotations, and
        each check scans for its index triples only when its largest residual
        exceeds ``tol``, so a valid algebra forms no triple list.
        """
        if not tol >= 0:  # a NaN tol as well
            raise ValueError("tol must be nonnegative")
        c = self.structure
        n = self.dim
        idx = np.arange(n)

        # "max <= tol" is False for a NaN residual, which scans as well
        anti = np.abs(c + c.transpose(1, 0, 2))
        max_anti = float(anti.max())
        anti_bad = () if max_anti <= tol else _triples((anti > tol) & (idx[:, None] <= idx)[:, :, None])  # i <= j

        # jac[i, j, l, :] = [[e_i,e_j],e_l] + [[e_j,e_l],e_i] + [[e_l,e_i],e_j], added in this order,
        # from t[a, b, d, :] = [[e_a,e_b],e_d] = sum_m c[a, b, m] c[m, d, :]
        # a product that overflows sums to inf or NaN (inf - inf), and "not <= tol" counts either as a violation
        with np.errstate(over="ignore", invalid="ignore"):
            t = (c.reshape(n * n, n) @ c.reshape(n, n * n)).reshape(n, n, n, n)
            jac = t + t.transpose(2, 0, 1, 3)
            jac += t.transpose(1, 2, 0, 3)
        max_jac = float(np.abs(jac, out=jac).max())
        lt = idx[:, None] < idx
        jac_bad = () if max_jac <= tol else _triples(~(jac.max(axis=3) <= tol) & lt[:, :, None] & lt[None])  # i < j < l

        # labels as integers, so the group law is XOR
        code = np.array([sum(int(b) << pos for pos, b in enumerate(lab.bits)) for lab in self.grading])
        off_target = (code[:, None] ^ code[None, :])[:, :, None] != code[None, None, :]
        grading_bad = (np.abs(c) > tol) & off_target

        return ValidationReport(
            antisymmetry=anti_bad,
            jacobi=jac_bad,
            grading=_triples(grading_bad) if grading_bad.any() else (),
            max_antisymmetry_residual=max_anti,
            max_jacobi_residual=max_jac,
        )


def _vector(x, n: int, what: str = "vector") -> np.ndarray:
    """x as a float array of shape (n,), the one admission of a coordinate vector: an algebra's, so(5)'s, m's."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {x.shape}")
    return x


def _triples(mask: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    return tuple(map(tuple, np.argwhere(mask).tolist()))


# --- JSON serialization ---

def algebra_to_dict(alg: GradedLieAlgebra) -> dict:
    """Serializable document: {dim, names, grading, structure nonzeros}.

    Structure constants are stored as (i, j, k, value) rows; values that
    are integers round-trip bit-exactly through JSON.
    """
    i, j, k = np.nonzero(alg.structure)
    rows = zip(i.tolist(), j.tolist(), k.tolist(), alg.structure[i, j, k].tolist())
    return {
        "dim": alg.dim,
        "names": list(alg.names),
        "grading": [list(lab.bits) for lab in alg.grading],
        "structure": [list(row) for row in rows],
    }


# validate forms two n^4 float arrays (the Jacobi products, their sum): a 275 MB peak at dim 64, 2 x 11.9 GiB at 200
_MAX_DIM = 64


def algebra_from_dict(data: dict) -> GradedLieAlgebra:
    """Inverse of :func:`algebra_to_dict`; a malformed document raises ValueError."""
    try:
        (n,) = _json_typed([data["dim"]], (int,), "dim must be an integer")
        if n > _MAX_DIM:
            raise ValueError(f"dim {n} is too large: a document holds at most {_MAX_DIM} basis elements")
        names = data["names"]
        if type(names) is not list or len(set(_json_typed(names, (str,), "names must be strings"))) != len(names):
            raise ValueError(f"names must be a list of distinct strings, got {names!r}")
        grading = [GradingLabel(_json_typed(bits, (bool,), "grading bits must be booleans"))
                   for bits in data["grading"]]
        if len(names) != n:
            raise ValueError("names length disagrees with dim")
        c = np.zeros((n, n, n))
        for row in data["structure"]:  # a repeated (i, j, k) keeps its last value
            i, j, k, value = row if type(row) is list and len(row) == 4 else (None,) * 4  # fails the check below
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
