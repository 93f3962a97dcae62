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

from . import _exports
from .algebra import GradedLieAlgebra, GradingLabel, _vector
from .metric import DEFAULT_TOL

__all__ = _exports(__name__)

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
_ROWS, _COLS = map(np.array, zip(*_POSITIONS))

LABELS = {
    "e": GradingLabel((False, False)),
    "a": GradingLabel((True, False)),
    "b": GradingLabel((False, True)),
    "c": GradingLabel((True, True)),
}

_GRADING = tuple(LABELS[s] for s in "eeaaaabbcc")


def basis_matrix(name: str) -> np.ndarray:
    """5x5 matrix of a named basis element."""
    return matrix_of(np.eye(10)[SO5_NAMES.index(name)])


def matrix_of(x) -> np.ndarray:
    """Linear map from a 10-coordinate vector to its 5x5 skew matrix: x_i at its +1 entry, -x_i at its -1 entry."""
    x = _vector(x, 10, "so(5) vector")
    m = np.zeros((5, 5))
    m[_ROWS, _COLS], m[_COLS, _ROWS] = x, 0.0 - x  # not -x: a zero coordinate gives +0.0 below, as above
    return m


def vector_of(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coordinates of a skew-symmetric 5x5 matrix in the canonical basis.

    Inverse of :func:`matrix_of`.  Raises ValueError for a negative ``tol``, or if
    the input is not finite or fails skew-symmetry by more than ``tol``.
    """
    if tol < 0:  # a NaN tol passes here and fails the skew check, which bounds no defect by it
        raise ValueError("tol must be nonnegative")
    m = np.asarray(m, dtype=float)
    if m.shape != (5, 5):
        raise ValueError(f"expected a 5x5 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():  # NaN passes the skew check, and m + m.T of a +-inf pair is NaN
        raise ValueError("matrix is not finite")
    skew_defect = float(np.max(np.abs(m + m.T)))
    if not skew_defect <= tol:  # a NaN tol as well
        raise ValueError(f"matrix is not skew-symmetric (defect {skew_defect:.3g} > tol {tol:.3g})")
    return m[_ROWS, _COLS]


@lru_cache(maxsize=1)
def build_so5() -> GradedLieAlgebra:
    """Construct the graded so(5) instance from matrix commutators, read at the +1 entry of each basis matrix."""
    mats = np.stack([basis_matrix(n) for n in SO5_NAMES])
    products = mats[:, None] @ mats[None]
    return GradedLieAlgebra(SO5_NAMES, (products - products.transpose(1, 0, 2, 3))[:, :, _ROWS, _COLS], _GRADING)

