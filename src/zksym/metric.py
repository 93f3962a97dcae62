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

DEFAULT_TOL lives here, beside MetricParams, the errors, FRAME_NAMES and _array,
which admits every array the library takes; numpy loads only where one is formed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import _exports

if TYPE_CHECKING:
    import numpy as np
    from .algebra import GradedLieAlgebra
else:
    np = None  # loaded only where an array is formed

__all__ = _exports(__name__)

DEFAULT_TOL = 1e-9
K_GUARD_EPS = 1e-8

# t^2, v^2 and w^2 must be normal floats: finite and not rounded towards zero
_SQUARE_RANGE = (sys.float_info.min, sys.float_info.max)

FRAME_NAMES = ("A~1", "A~2", "A~3", "A~4", "B~1", "B~2", "C~1", "C~2")


def _quote(y: float, e: int, digits: int) -> str:
    """y * 4^e as f"{y * 4^e:.{digits}g}" prints it where that is a normal float; else from the exact value."""
    x = math.ldexp(y, 2 * e) if math.frexp(y)[1] + 2 * e <= 1024 else math.inf  # else it overflows
    if y == 0.0 or sys.float_info.min <= abs(x) < math.inf:
        return f"{x:.{digits}g}"
    from decimal import Decimal, localcontext  # loaded only to quote a value beyond the normal floats
    with localcontext(prec=2300):  # exact: a float has at most 767 significant digits, 4^e for |e| <= 1074 1503
        mantissa, exponent = f"{Decimal(y) * Decimal(4) ** e:.{digits - 1}e}".split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"  # beyond the normal floats %g writes an exponent


class InvalidParamsError(ValueError):
    """Metric parameters outside the admissible set (t*v*w = 0 or |u| > 2t^2)."""


class DegenerateMetricError(ArithmeticError):
    """Parameters too close to the degenerate boundary (K below the guard)."""


def _array(x, shape: tuple[int, ...], what: str, keep: bool = False) -> np.ndarray:
    """x as a float array of ``shape``, else a ValueError naming ``what``; a record ``keep``s a read-only copy."""
    global np
    if np is None:  # the first array admitted binds numpy, for every later one
        import numpy as np
    x = np.array(x, dtype=float) if keep else np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {x.shape}")
    if keep:
        x.setflags(write=False)
    return x


def _finite(name: str, value) -> float:
    """The parameter as a finite float; refuses a NaN, an infinity and a number beyond the floats, by name."""
    try:
        value = float(value)
    except OverflowError:  # an int beyond the floats
        raise InvalidParamsError(f"parameter {name} must be finite, got a number beyond the floats") from None
    if not math.isfinite(value):
        raise InvalidParamsError(f"parameter {name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True, init=False)
class MetricParams:
    """Admissible parameter tuple (t, u, v, w) of an adapted metric, and its ``unit_scalars`` (e, y), not a field:
    2^e <= |t| < 2^(e+1) and y = x / 4^e, from the exact square of tau = t / 2^e, so the signs of y1, y2 are exact;
    far from the unit scale y overflows to inf or underflows to 0 quietly."""

    t: float
    u: float
    v: float
    w: float

    def __init__(self, t: float, u: float, v: float, w: float):
        t, u, v, w = _finite("t", t), _finite("u", u), _finite("v", v), _finite("w", w)
        if t == 0.0 or v == 0.0 or w == 0.0:
            raise InvalidParamsError("t, v, w must all be nonzero")
        e = math.frexp(t)[1] - 1
        p = math.ldexp(1.0, e)  # quotients by a power of two are exact, and overflow to inf quietly
        tau, half_u = t / p, u / p / (2.0 * p)
        hi = tau * 134217729.0  # Dekker's split: tau = hi + lo with 26 bits each, so hi * hi is exact
        hi -= hi - tau
        lo, tt = tau - hi, tau * tau
        error = ((hi * hi - tt) + 2.0 * hi * lo) + lo * lo  # tau^2 - fl(tau^2), exactly
        y = ((tt + half_u) + error, (tt - half_u) + error, (v / p) * (v / p), (w / p) * (w / p))
        if y[0] < 0.0 or y[1] < 0.0:  # x1 or x2 < 0: the form is indefinite
            bound = _quote(2.0 * tau ** 2, e, 6)  # 2t^2 from the unit scale, so it never underflows
            raise InvalidParamsError(f"u must lie in the open interval (-2t^2, 2t^2) = (-{bound}, {bound}), got {u:g}")
        self.__dict__.update(t=t, u=u, v=v, w=w, unit_scalars=(e, y))  # ==, hash and repr see the fields alone

    @property
    def K(self) -> float:
        """K > 0; refuses a nearly degenerate metric, and t^2, v^2, w^2 that are not normal floats."""
        lo, hi = _SQUARE_RANGE
        t2, v2, w2 = self.t * self.t, self.v * self.v, self.w * self.w
        if not (lo <= t2 <= hi and lo <= v2 <= hi and lo <= w2 <= hi):
            scales = [(a, math.frexp(a)[1] - 1) for a in (self.t, self.v, self.w)]  # each square at its own scale
            shown = ", ".join(_quote(math.ldexp(a, -e) ** 2, e, 3) for a, e in scales)
            raise DegenerateMetricError(f"t^2, v^2, w^2 = {shown} leave the range of normal floats [{lo:.3g}, {hi:.3g}]")
        e, (y1, y2, _, _) = self.unit_scalars
        p = math.ldexp(1.0, e)
        tau = abs(self.t / p)
        if not y1 * y2 >= (K_GUARD_EPS * tau * tau) ** 2:  # K^2 >= (K_GUARD_EPS t)^2 at the unit scale
            k_squared, guard = _quote(y1 * y2 / (tau * tau), e, 3), _quote((K_GUARD_EPS * tau) ** 2, e, 3)
            raise DegenerateMetricError(f"K^2 = {k_squared} below guard {guard}: |u| too close to the degenerate boundary")
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
        object.__setattr__(self, "gram", _array(self.gram, (8, 8), "gram matrix", keep=True))


@dataclass(frozen=True, eq=False)
class OrthonormalFrame:
    """Orthonormal frame of m; column j of ``matrix`` is frame vector j in raw m-coordinates."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _array(self.matrix, (8, 8), "frame matrix", keep=True))

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
    form = AdaptedForm(gram=_gram(p.t * p.t, 0.5 * p.u, p.v * p.v, p.w * p.w))
    object.__setattr__(form, "params", p)
    return form


def _gram(t2: float, half_u: float, v2: float, w2: float) -> np.ndarray:
    """The adapted Gram pattern: diag(t2, t2, t2, t2, v2, v2, w2, w2), with g03 = half_u and g12 = -half_u."""
    import numpy as np
    g = np.diag([t2] * 4 + [v2] * 2 + [w2] * 2)
    g[0, 3] = g[3, 0] = half_u
    g[1, 2] = g[2, 1] = -half_u
    return g


def _gram_defect(p: MetricParams) -> float:
    """max |E^T G E - I| for the Gram matrix G of :func:`build_form`, which holds fl(t^2) where the orthonormal root
    frame E has t^2: (fl(t^2) - t^2) / x_k on the A modules, 0 on B and C, rounded once from the exact rationals."""
    n = p.t.as_integer_ratio()[0]
    if (n // (n & -n)) ** 2 < 2**53:  # t's odd part squares within 53 bits: t^2 is a float
        return 0.0
    from fractions import Fraction  # loaded only where t^2 is not a float
    t = Fraction(p.t)
    return float(abs(Fraction(p.t * p.t) - t * t) / (t * t - abs(Fraction(p.u)) / 2))


def orthonormal_frame(p: MetricParams) -> OrthonormalFrame:
    """Frame dual to the adapted coframe; orthonormal for build_form(p)."""
    import numpy as np
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
    import numpy as np
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
