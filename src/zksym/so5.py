"""The Z_2^2-graded so(5) underlying SO(5)/SO(2)xSO(2)xSO(1).

A generic element of so(5) is parametrized as

    (  0   x1   a1   a2   b1 )
    ( -x1   0   a3   a4   b2 )
    ( -a1  -a3   0   x2   c1 )
    ( -a2  -a4  -x2   0   c2 )
    ( -b1  -b2  -c1  -c2   0 )

and the basis element named after a coefficient is the matrix with that
coefficient set to 1 (so the +1 sits above the diagonal, -1 below).  The
grading over Z_2^2 = {e, a, b, c} with a*b = c, a*c = b, b*c = a puts
{X1, X2} in the identity block e (the isotropy so(2)+so(2)), {A1..A4} in
block a, {B1, B2} in block b and {C1, C2} in block c.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import DEFAULT_TOL, GradedLieAlgebra, GradingLabel

SO5_NAMES = ("X1", "X2", "A1", "A2", "A3", "A4", "B1", "B2", "C1", "C2")

# (row, col) of the +1 entry of each basis matrix, in basis order
_POSITIONS = (
    (0, 1),  # X1
    (2, 3),  # X2
    (0, 2),  # A1
    (0, 3),  # A2
    (1, 2),  # A3
    (1, 3),  # A4
    (0, 4),  # B1
    (1, 4),  # B2
    (2, 4),  # C1
    (3, 4),  # C2
)

LABELS = {
    "e": GradingLabel((False, False)),
    "a": GradingLabel((True, False)),
    "b": GradingLabel((False, True)),
    "c": GradingLabel((True, True)),
}

_GRADING = tuple(LABELS[s] for s in "eeaaaabbcc")

M_INDICES = (2, 3, 4, 5, 6, 7, 8, 9)
M_NAMES = SO5_NAMES[2:]


def basis_matrix(name: str) -> np.ndarray:
    """5x5 matrix of a named basis element."""
    row, col = _POSITIONS[SO5_NAMES.index(name)]
    m = np.zeros((5, 5))
    m[row, col] = 1.0
    m[col, row] = -1.0
    return m


@lru_cache(maxsize=1)
def _basis_tensor() -> np.ndarray:
    mats = np.stack([basis_matrix(n) for n in SO5_NAMES])
    mats.setflags(write=False)
    return mats


def matrix_of(x) -> np.ndarray:
    """Linear map from a 10-coordinate vector to its 5x5 skew matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape != (10,):
        raise ValueError(f"so(5) vector must have shape (10,), got {x.shape}")
    return np.einsum("i,ijk->jk", x, _basis_tensor())


def vector_of(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coordinates of a skew-symmetric 5x5 matrix in the canonical basis.

    Inverse of :func:`matrix_of`.  Raises ValueError if the input fails
    skew-symmetry by more than ``tol``.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (5, 5):
        raise ValueError(f"expected a 5x5 matrix, got shape {m.shape}")
    skew_defect = float(np.max(np.abs(m + m.T)))
    if skew_defect > tol:
        raise ValueError(f"matrix is not skew-symmetric (defect {skew_defect:.3g} > tol {tol:.3g})")
    return np.array([m[row, col] for row, col in _POSITIONS])


@lru_cache(maxsize=1)
def build_so5() -> GradedLieAlgebra:
    """Construct the graded so(5) instance from matrix commutators."""
    mats = _basis_tensor()
    c = np.zeros((10, 10, 10))
    for i in range(10):
        for j in range(10):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            c[i, j] = vector_of(comm, tol=0.0)
    return GradedLieAlgebra(SO5_NAMES, c, _GRADING)
