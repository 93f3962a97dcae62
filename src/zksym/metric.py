"""Invariant metrics adapted to the Z_2^2 grading of so(5).

On m = span{A1..A4, B1, B2, C1, C2} the adapted positive-definite forms
make the four grading blocks mutually orthogonal and are parametrized by
four scalars (t, u, v, w):

    B = t^2 (a1^2 + a2^2 + a3^2 + a4^2) + u (a1 a4 - a2 a3)
        + v^2 (b1^2 + b2^2) + w^2 (c1^2 + c2^2)

in the dual coordinates of the m-basis, with t*v*w != 0.  In the root
basis of the torus it is diag(x), x = (t^2 + u/2, t^2 - u/2, v^2, w^2),
formed once per point from the exact t^2 (:attr:`MetricParams.unit_scalars`).
It is positive-definite exactly when x1, x2 > 0, that is |u| < 2t^2, so that

    K = sqrt(x1 x2 / t^2) = sqrt(t^2 - u^2 / (4 t^2))

is positive.  Parameters with |u| > 2t^2 are invalid; admissible ones
with K below K_GUARD_EPS * |t| (u = +-2t^2 included) are refused by the
guard on K as nearly degenerate, with a distinct error.

The adapted orthonormal frame returned by :func:`orthonormal_frame`, in
which the geometry presents its tables, is dual to the coframe, h = u/(2t),

    a~1 = t a1 + h a4,        a~2 = t a2 - h a3,
    a~3 = K a3,               a~4 = K a4,
    b~i = v bi,               c~i = w ci,

so that tables computed in it carry definite signs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import DEFAULT_TOL, GradedLieAlgebra

K_GUARD_EPS = 1e-8

# t^2, v^2 and w^2 must be normal floats: finite and not rounded towards zero
_SQUARE_RANGE = (sys.float_info.min, sys.float_info.max)

FRAME_NAMES = ("A~1", "A~2", "A~3", "A~4", "B~1", "B~2", "C~1", "C~2")


class InvalidParamsError(ValueError):
    """Metric parameters outside the admissible set (t*v*w = 0 or |u| > 2t^2)."""


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
        if min(self.unit_scalars[1][:2]) < 0.0:  # x1 or x2 < 0: the form is indefinite
            bound = 2.0 * self.t * self.t
            raise InvalidParamsError(
                f"u must lie in the open interval (-2t^2, 2t^2) = (-{bound:g}, {bound:g}), got {self.u:g}"
            )

    @cached_property
    def unit_scalars(self) -> tuple[int, tuple[float, float, float, float]]:
        """(e, y): 2^e <= |t| < 2^(e+1) and y = x / 4^e, from the exact square of tau = t / 2^e, so the
        signs of y1, y2 are exact; far from the unit scale y overflows to inf or underflows to 0 quietly."""
        e = math.frexp(self.t)[1] - 1
        p = math.ldexp(1.0, e)  # quotients by a power of two are exact, and overflow to inf quietly
        tau, half_u, v, w = self.t / p, self.u / p / (2.0 * p), self.v / p, self.w / p
        hi = tau * 134217729.0  # Dekker's split: tau = hi + lo with 26 bits each, so hi * hi is exact
        hi -= hi - tau
        lo, tt = tau - hi, tau * tau
        error = ((hi * hi - tt) + 2.0 * hi * lo) + lo * lo  # tau^2 - fl(tau^2), exactly
        return e, ((tt + half_u) + error, (tt - half_u) + error, v * v, w * w)

    @property
    def k_squared(self) -> float:
        """x1 x2 / t^2, formed at the unit scale, without any guard."""
        e, (y1, y2, _, _) = self.unit_scalars
        p = math.ldexp(1.0, e)
        tau = self.t / p
        return y1 * y2 / (tau * tau) * p * p

    @property
    def K(self) -> float:
        """K > 0; refuses a nearly degenerate metric, and t^2, v^2, w^2 that are not normal floats."""
        lo, hi = _SQUARE_RANGE
        squares = (self.t * self.t, self.v * self.v, self.w * self.w)
        if not all(lo <= x <= hi for x in squares):
            shown = ", ".join(f"{x:.3g}" for x in squares)
            raise DegenerateMetricError(f"t^2, v^2, w^2 = {shown} leave the range of normal floats [{lo:.3g}, {hi:.3g}]")
        e, (y1, y2, _, _) = self.unit_scalars
        p = math.ldexp(1.0, e)
        tau = abs(self.t / p)
        if not y1 * y2 >= (K_GUARD_EPS * tau * tau) ** 2:  # K^2 >= (K_GUARD_EPS t)^2 at the unit scale
            raise DegenerateMetricError(f"K^2 = {self.k_squared:.3g} below guard {(K_GUARD_EPS * self.t) ** 2:.3g}: "
                                        "|u| too close to the degenerate boundary")
        return math.sqrt(y1 * y2) / tau * p


@dataclass(frozen=True, eq=False)
class AdaptedForm:
    """Gram matrix of an adapted bilinear form on m, basis order A1..C2.

    ``params`` is set only by :func:`build_form`, so a form's parameters
    always describe its Gram matrix; a form built from a bare matrix has none.
    """

    gram: np.ndarray
    params: MetricParams | None = field(default=None, init=False)

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

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

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
    form = AdaptedForm(gram=g)
    object.__setattr__(form, "params", p)
    return form


def orthonormal_frame(p: MetricParams) -> OrthonormalFrame:
    """Frame dual to the adapted coframe; orthonormal for build_form(p)."""
    k = p.K
    t = p.t
    mix = p.u / (2.0 * t) / t / k  # h / (t K)
    f = np.zeros((8, 8))
    f[0, 0] = 1.0 / t                 # A~1 = A1/t
    f[1, 1] = 1.0 / t                 # A~2 = A2/t
    f[1, 2] = mix                     # A~3 = h/(t K) A2 + A3/K
    f[2, 2] = 1.0 / k
    f[0, 3] = -mix                    # A~4 = -h/(t K) A1 + A4/K
    f[3, 3] = 1.0 / k
    f[4, 4] = f[5, 5] = 1.0 / p.v     # B~i = Bi/v
    f[6, 6] = f[7, 7] = 1.0 / p.w     # C~i = Ci/w
    return OrthonormalFrame(matrix=f)


@dataclass(frozen=True)
class InvarianceReport:
    """Largest residual of B([Z,X],Y) + B(X,[Z,Y]) over the isotropy and m-basis."""

    max_residual: float
    worst: tuple[str, str, str]

    def ok(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_residual <= tol


def check_adh_invariance(alg: GradedLieAlgebra, form: AdaptedForm) -> InvarianceReport:
    """Check invariance of a form on m under the isotropy subalgebra.

    ``form.gram`` must be indexed by ``alg.m_indices`` in algebra order.
    Returns the worst triple (Z, X, Y); the residual is zero for every
    output of :func:`build_form`.  Judge it with :meth:`InvarianceReport.ok`.
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
