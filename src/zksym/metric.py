"""Invariant metrics adapted to the Z_2^2 grading of so(5).

On m = span{A1..A4, B1, B2, C1, C2} the adapted positive-definite forms
make the four grading blocks mutually orthogonal and are parametrized by
four scalars (t, u, v, w):

    B = t^2 (a1^2 + a2^2 + a3^2 + a4^2) + u (a1 a4 - a2 a3)
        + v^2 (b1^2 + b2^2) + w^2 (c1^2 + c2^2)

in the dual coordinates of the m-basis, with t*v*w != 0 and u inside the
open interval (-4t^2, 4t^2).  The normalizing scalar

    K = sqrt(t^2 - u^2 / (4 t^2))

must stay positive; since positive-definiteness of the A-block is
equivalent to K being real, operations guard on K >= K_GUARD_EPS * |t| and
refuse nearly degenerate parameters with a distinct error.

The orthonormal frame returned by :func:`orthonormal_frame` is the one
dual to the coframe

    a~1 = t a1 + u/(2t) a4,   a~2 = t a2 - u/(2t) a3,
    a~3 = K a3,               a~4 = K a4,
    b~i = v bi,               c~i = w ci,

so that tables computed in it carry definite signs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import DEFAULT_TOL, GradedLieAlgebra

K_GUARD_EPS = 1e-8

# t^2, v^2 and w^2 must be normal floats: finite and not rounded towards zero
_SQUARE_RANGE = (sys.float_info.min, sys.float_info.max)

FRAME_NAMES = ("A~1", "A~2", "A~3", "A~4", "B~1", "B~2", "C~1", "C~2")


class InvalidParamsError(ValueError):
    """Metric parameters outside the admissible set (t*v*w = 0, |u| >= 4t^2)."""


class DegenerateMetricError(ArithmeticError):
    """Parameters too close to the degenerate boundary (K below the guard)."""


@dataclass(frozen=True)
class MetricParams:
    """Admissible parameter tuple (t, u, v, w) of an adapted metric."""

    t: float
    u: float
    v: float
    w: float

    def __post_init__(self):
        for name in ("t", "u", "v", "w"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InvalidParamsError(f"parameter {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.t == 0.0 or self.v == 0.0 or self.w == 0.0:
            raise InvalidParamsError("t, v, w must all be nonzero")
        bound = 4.0 * self.t * self.t
        if not (-bound < self.u < bound):
            raise InvalidParamsError(
                f"u must lie in the open interval (-4t^2, 4t^2) = (-{bound:g}, {bound:g}), got {self.u:g}"
            )

    @property
    def k_squared(self) -> float:
        """t^2 - u^2/(4 t^2), without any guard."""
        t2 = self.t * self.t
        u2 = self.u * self.u
        # u^2 may overflow where u^2/(4t^2) does not; (u/(2t))^2 everywhere
        # would move K by an ulp, so it serves only there
        if u2 == math.inf:
            half = self.u / (2.0 * self.t)
            return t2 - half * half
        return t2 - u2 / (4.0 * t2)

    @property
    def K(self) -> float:
        """The positive normalizing scalar; raises if the metric is nearly degenerate.

        Also refuses scales whose squares leave the range of normal floats.
        """
        lo, hi = _SQUARE_RANGE
        squares = (self.t * self.t, self.v * self.v, self.w * self.w)
        if not all(lo <= x <= hi for x in squares):
            shown = ", ".join(f"{x:.3g}" for x in squares)
            raise DegenerateMetricError(f"t^2, v^2, w^2 = {shown} leave the range of normal floats [{lo:.3g}, {hi:.3g}]")
        k2 = self.k_squared
        guard = (K_GUARD_EPS * self.t) ** 2
        if not (k2 >= guard and k2 > 0.0):  # NaN when u^2 and 4t^2 both overflow
            raise DegenerateMetricError(
                f"K^2 = {k2:.3g} below guard {guard:.3g}: |u| too close to the degenerate boundary"
            )
        return math.sqrt(k2)


@dataclass(frozen=True, eq=False)
class AdaptedForm:
    """Gram matrix of an adapted bilinear form on m, basis order A1..C2."""

    gram: np.ndarray
    params: MetricParams | None = None

    def __post_init__(self):
        g = np.array(self.gram, dtype=float)
        if g.shape != (8, 8):
            raise ValueError(f"gram matrix must be 8x8, got {g.shape}")
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)


@dataclass(frozen=True, eq=False)
class OrthonormalFrame:
    """Orthonormal frame of m; column j of ``matrix`` is frame vector j in raw m-coordinates."""

    matrix: np.ndarray
    params: MetricParams

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def inverse(self) -> np.ndarray:
        inv = np.linalg.inv(self.matrix)
        inv.setflags(write=False)
        return inv

    @property
    def names(self) -> tuple[str, ...]:
        return FRAME_NAMES

    def vector(self, name: str) -> np.ndarray:
        """Frame vector by name, in raw m-coordinates."""
        return self.matrix[:, FRAME_NAMES.index(name)].copy()


def build_form(p: MetricParams) -> AdaptedForm:
    """Gram matrix of the adapted form for admissible parameters.

    The A-block couples (A1, A4) and (A2, A3) through u/2, the B- and
    C-blocks are v^2 and w^2 multiples of the identity, and distinct
    grading blocks are orthogonal.
    """
    p.K  # positive-definiteness guard
    t2 = p.t * p.t
    half_u = 0.5 * p.u
    g = np.zeros((8, 8))
    g[:4, :4] = [
        [t2, 0.0, 0.0, half_u],
        [0.0, t2, -half_u, 0.0],
        [0.0, -half_u, t2, 0.0],
        [half_u, 0.0, 0.0, t2],
    ]
    g[4, 4] = g[5, 5] = p.v * p.v
    g[6, 6] = g[7, 7] = p.w * p.w
    return AdaptedForm(gram=g, params=p)


def orthonormal_frame(p: MetricParams) -> OrthonormalFrame:
    """Frame dual to the adapted coframe; orthonormal for build_form(p)."""
    k = p.K
    t = p.t
    two_t2 = 2.0 * t * t
    mix = (p.u / two_t2 if two_t2 < math.inf else p.u / (2.0 * t) / t) / k
    f = np.zeros((8, 8))
    f[0, 0] = 1.0 / t                 # A~1 = A1/t
    f[1, 1] = 1.0 / t                 # A~2 = A2/t
    f[1, 2] = mix                     # A~3 = u/(2 t^2 K) A2 + A3/K
    f[2, 2] = 1.0 / k
    f[0, 3] = -mix                    # A~4 = -u/(2 t^2 K) A1 + A4/K
    f[3, 3] = 1.0 / k
    f[4, 4] = f[5, 5] = 1.0 / p.v     # B~i = Bi/v
    f[6, 6] = f[7, 7] = 1.0 / p.w     # C~i = Ci/w
    return OrthonormalFrame(matrix=f, params=p)


@dataclass(frozen=True)
class InvarianceReport:
    """Largest residual of B([Z,X],Y) + B(X,[Z,Y]) over the isotropy and m-basis."""

    max_residual: float
    worst: tuple[str, str, str]

    def ok(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_residual <= tol


def check_adh_invariance(alg: GradedLieAlgebra, form: AdaptedForm, tol: float = DEFAULT_TOL) -> InvarianceReport:
    """Check invariance of a form on m under the isotropy subalgebra.

    ``form.gram`` must be indexed by ``alg.m_indices`` in algebra order.
    Returns the worst triple (Z, X, Y); the residual is zero for every
    output of :func:`build_form`.
    """
    n = len(alg.m_indices)
    if form.gram.shape != (n, n):
        raise ValueError("form dimension does not match the reductive complement")
    g = form.gram
    _, _, adh = alg.m_structure()
    if not len(adh):
        return InvarianceReport(max_residual=0.0, worst=("", "", ""))
    res = np.abs(adh.transpose(0, 2, 1) @ g + g @ adh).reshape(len(adh), -1)
    # the last h element among equal maxima, its first maximal (X, Y) pair
    z = len(res) - 1 - int(np.argmax(res.max(axis=1)[::-1]))
    x, y = divmod(int(np.argmax(res[z])), n)
    m_names = [alg.names[i] for i in alg.m_indices]
    return InvarianceReport(
        max_residual=float(res[z].max()),
        worst=(alg.names[alg.h_indices[z]], m_names[x], m_names[y]),
    )
