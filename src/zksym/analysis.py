"""Structural predicates and parameter-family solvers.

Everything is computed in the root-space frame of :mod:`zksym.geometry`,
where the first Ledger condition L = 0 is two collinearity determinants
D_alpha = 0.  After the substitution V = v^2/t^2, W = w^2/t^2, S = V + W,
P = V W (and U = u/t^2 when u != 0) they admit closed-form solution
families, one branch with u = 0 and one with u != 0.  The solvers below
return the families normalized at t = 1 with their recomputed residuals,
each solution evaluated once, point by point.  The metrics with
v = w form a third family that satisfies L = 0 and that no solver returns;
of it only the round point u = 0, v^2 = w^2 = t^2 is naturally reductive.

Verdicts use frame-free scales: Frobenius norms, the same in every
orthonormal frame, and each D_alpha against the sizes of its terms, which
do not scale.  The adapted frame (A~1..C~2), in which reports name frame
triples, is for presentation only; the four reduced equations written in
it are closed combinations of D1 and D2 (:func:`ledger_system_residuals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import geometry
from .algebra import DEFAULT_TOL
from .metric import FRAME_NAMES, DegenerateMetricError, InvalidParamsError, MetricParams

__all__ = [
    "LedgerSolution",
    "ReductivityReport",
    "S_INTERVAL_U0",
    "S_INTERVAL_UNONZERO",
    "VerificationReport",
    "first_ledger_verdict",
    "infinitesimal_isometries",
    "is_naturally_reductive",
    "ledger_system_residuals",
    "solve_ledger_u0",
    "solve_ledger_unonzero",
    "verify_solution",
]

S_INTERVAL_U0 = (1.0, 9.0)
S_MAX_UNONZERO = (7.0 - math.sqrt(17.0)) / 2.0
S_INTERVAL_UNONZERO = (1.0 / 3.0, S_MAX_UNONZERO)


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReductivityReport:
    """U-based naturally-reductive test: max |<U(X,Y),Z>| over adapted frame triples."""

    naturally_reductive: bool
    max_coefficient: float
    witness: tuple[str, str, str] | None

    def __bool__(self) -> bool:
        return self.naturally_reductive


def is_naturally_reductive(p: MetricParams, tol: float = DEFAULT_TOL) -> ReductivityReport:
    """Test whether the metric is naturally reductive (U vanishes on m).

    U counts as zero up to tol times the bracket table, in Frobenius norm,
    which is the same in every orthonormal frame.  The witness names an
    adapted frame triple (X, Y, Z) maximizing |<U(X,Y),Z>| when the test fails.
    """
    geo = geometry._cached_geometry(p)
    u_max, (i, j, k) = geo.u_max
    if _reductive(geo, tol):
        return ReductivityReport(True, u_max, None)
    return ReductivityReport(False, u_max, (FRAME_NAMES[i], FRAME_NAMES[j], FRAME_NAMES[k]))


def _reductive(geo, tol: float = DEFAULT_TOL) -> bool:
    """The naturally-reductive verdict at a point's geometry: ||U|| <= tol * ||bracket table||."""
    return geo.norm_u <= tol * geo.norm_c


def first_ledger_verdict(p: MetricParams, tol: float = DEFAULT_TOL) -> tuple[float, bool]:
    """max|L| over adapted frame triples, and whether the first Ledger condition holds to tol.

    L = 0 iff the two collinearity determinants D_alpha of
    :mod:`zksym.geometry` vanish.  Each is judged against the sum of the
    sizes of its three terms, |D_alpha| <= tol * sum |(x_i - x_j) r_k|,
    both sides scale-free and frame-free.  Where the three points nearly
    meet, near the round point, that sum vanishes with D_alpha, and U = 0
    to tol, which implies L = 0, holds instead.  Raises
    DegenerateMetricError when max|L|, a determinant or its terms overflow.
    """
    geo = geometry._cached_geometry(p)
    if not math.isfinite(geo.ledger_max):  # the Q-form L can overflow where the determinants do not
        raise DegenerateMetricError(f"max |L| over frame triples is not finite: {geo.ledger_max}")
    return geo.ledger_max, _ledger_holds(geo, tol)


def _ledger_holds(geo, tol: float = DEFAULT_TOL) -> bool:
    """The first Ledger verdict at a point's geometry (see :func:`first_ledger_verdict`)."""
    return all(abs(d) <= tol * s for d, s in _determinants(geo, geo.det_scale)) or _reductive(geo, tol)


def _determinants(geo, scale: list[float]):
    """The pairs (D_alpha, its scale) at a point's geometry; raises where they are not finite."""
    if not all(map(math.isfinite, geo.det + scale)):  # their sum may overflow where neither does
        raise DegenerateMetricError(f"the Ledger determinants are not finite: {geo.det}")
    return zip(geo.det, scale)


def infinitesimal_isometries(p: MetricParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the X in m whose ad(X)_m is skew for the metric.

    Solves B([X,Y]_m, Z) + B(Y, [X,Z]_m) = 0, that is <U(Y, Z), X> = 0, over all
    frame pairs (Y, Z) as a linear system in X; the kernel is extracted by SVD
    with relative singular-value cutoff ``tol``.  The SVD is formed once per
    cached point; only the tol cut runs per query.  Columns of the returned
    (8, dim) array are the basis vectors in adapted frame coordinates.  At v = w the
    space is 4-dimensional, yet probes of Singer's stabilizer find the isometry
    algebra so(5) there: it holds no extra Killing fields.
    """
    s, vh = geometry._cached_geometry(p).u_svd
    cutoff = tol * (s[0] if s and s[0] > 0 else 1.0)
    rank = sum(x > cutoff for x in s)
    return vh[rank:].T.copy()


def ledger_system_residuals(p: MetricParams) -> np.ndarray:
    """The four reduced scalar equations of the first Ledger condition, in the adapted frame.

    The eight frame triples where L can be nonzero, (A~i, B~j, C~k) with
    j = k for i = 1, 4 and j != k for i = 2, 3, each carry one equation
    times +-1/t, +-1/(vw), -1/(tvw) or -1/(Kvw), so all four vanish iff
    L = 0.  They are read off the D_alpha of :mod:`zksym.geometry`, vw signed:
    eq1 = -(D1 + D2)/2, eq2 = -(D1 - D2)/(2t), eq4 = -(x2 D1 + x1 D2)/(2t^2)
    and eq3 = sgn t (x2 D1 - x1 D2)/(2 vw sqrt(x1 x2)), of rank 2 in D_alpha.
    Written out over the Ricci entries (r11, r33, r55, r77, r14), they have
    rank at most 3, as v w eq3 = u/(2tK) eq4 - K eq2, and 3 off u = 0 and
    v^2 = w^2 (``tests/test_symbolic.py`` proves all of this).  D_alpha is
    scale-free, so they are formed at the unit scale and scaled as t^0,
    t^-1, t^-2, t^0 after.  Raises DegenerateMetricError when one overflows.
    """
    geo, (e, (x1, x2, x3, x4)) = geometry._cached_geometry(p), p.unit_scalars
    t, v, w = (math.ldexp(a, -e) for a in (p.t, p.v, p.w))
    d1, d2 = (0.5 * (x4 - x3) * q for q in geo.q)
    star = [-(d1 + d2) / 2, -(d1 - d2) / (2 * t),
            math.copysign(1.0, t) * (x2 * d1 - x1 * d2) / (2 * v * w * math.sqrt(x1 * x2)),
            -(x2 * d1 + x1 * d2) / (2 * t * t)]
    star = [geometry._ldexp(x, n) + 0.0 for x, n in zip(star, (0, -e, -2 * e, 0))]  # and no -0.0
    if not all(map(math.isfinite, star)):  # overflow shows up as a non-finite residual
        raise DegenerateMetricError(f"reduced Ledger system residuals are not finite: {star}")
    return np.array(star)


# ----------------------------------------------------------------------
# solution families of the first Ledger condition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerSolution:
    """Admissible parameter tuple solving the first Ledger condition.

    V = v^2/t^2 and W = w^2/t^2 at the normalization t = 1; Usq = u^2/t^4
    (zero on the u-zero branch).  ``residuals`` reports, computed in the
    root frame, ||L|| in Frobenius norm ("ledger"), the larger |D_alpha|
    ("star") and the root frame's orthonormality defect ("gram").  A solver
    attaches its evaluation for :func:`verify_solution`; a copy has none.
    """

    branch: str
    S: float
    V: float
    W: float
    Usq: float
    params: MetricParams
    residuals: Mapping[str, float]
    naturally_reductive: bool
    _evaluation: tuple[_Residuals, _Residuals, bool] | None = field(default=None, init=False, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "S": self.S,
            "V": self.V,
            "W": self.W,
            "Usq": self.Usq,
            "params": {"t": self.params.t, "u": self.params.u, "v": self.params.v, "w": self.params.w},
            "residuals": dict(self.residuals),
            "naturally_reductive": self.naturally_reductive,
        }


_Residuals = tuple[tuple[str, float], ...]


def _evaluate(points) -> list[tuple[_Residuals, _Residuals, bool]]:
    """Per point, from its cached geometry: absolute residuals, the same over their scale, naturally reductive.

    The residuals come as (name, value) pairs: ||L|| in Frobenius norm
    ("ledger"), over ||nabla|| ||rho||; the larger |D_alpha| ("star"), each
    over the sizes of all the terms of its expansion in x, which bound what
    rounding the solution's own parameters can move it by (near S = 1 on
    the u = 0 branch one ulp of W moves it by far more than its three
    terms' sizes); and the root frame's orthonormality defect for the Gram
    matrix of :func:`build_form` in closed form ("gram", of scale 1).
    The scales are frame-free and do not scale.  Callers make their own dicts.
    """
    evaluations = []
    for p in points:
        geo = geometry._cached_geometry(p)
        star = max(abs(d) / s for d, s in _determinants(geo, geo.det_bound))  # the sizes include 3 / x_k > 0
        absolute = ("ledger", geometry._ldexp(geo.norm_ledger, -3 * geo.e)), ("star", max(map(abs, geo.det)))
        # an overflowing scale leaves the relative ||L|| at 0
        relative = ("ledger", geo.norm_ledger / (geo.norm_n * geo.norm_rho)), ("star", star)
        gram = ("gram", _gram_defect(p))
        evaluations.append(((*absolute, gram), (*relative, gram), _reductive(geo)))
    return evaluations


def _gram_defect(p: MetricParams) -> float:
    """max |E^T G E - I| for the Gram matrix G of :func:`build_form`, which holds fl(t^2) where the frame has
    t^2: (fl(t^2) - t^2) / x_k on the A modules, 0 on B and C, rounded once from the exact rationals."""
    n = p.t.as_integer_ratio()[0]
    if (n // (n & -n)) ** 2 < 2**53:  # t's odd part squares within 53 bits: t^2 is a float
        return 0.0
    from fractions import Fraction  # loaded only where t^2 is not a float
    t = Fraction(p.t)
    return float(abs(Fraction(p.t * p.t) - t * t) / (t * t - abs(Fraction(p.u)) / 2))


def _solve(branch: str, rows: list[tuple[float, float, float, float]]) -> list[LedgerSolution]:
    """The solutions (S, V, W, u) at t = 1, evaluated together by one :func:`_evaluate`."""
    points = [MetricParams(1.0, u, math.sqrt(vv), math.sqrt(ww)) for _, vv, ww, u in rows]
    evaluations = _evaluate(points) if points else []
    solutions = []
    for (s, vv, ww, u), p, evaluation in zip(rows, points, evaluations):
        sol = LedgerSolution(branch, s, vv, ww, u * u, p, dict(evaluation[0]), evaluation[2])
        object.__setattr__(sol, "_evaluation", evaluation)
        solutions.append(sol)
    return solutions


def solve_ledger_u0(*grid: float) -> list[LedgerSolution]:
    """Solution families with u = 0 at each given S = V + W in (1, 9), in order.

    V and W are the two roots of X^2 - S X + P with P = (S - 1)(9 - S)/8;
    the two solutions per S realize both root orderings (v^2, w^2) =
    (X1, X2) t^2 and (X2, X1) t^2.  The small root is taken as X1 = P/X2,
    which keeps full precision where P -> 0 at either end of the interval.
    """
    rows = []
    for s in grid:
        lo, hi = S_INTERVAL_U0
        if not (lo < s < hi):
            raise InvalidParamsError(f"S must lie in the open interval ({lo:g}, {hi:g}), got {s:g}")
        disc = (3.0 * s * s - 10.0 * s + 9.0) / 2.0
        x2 = (s + math.sqrt(disc)) / 2.0
        x1 = (s - 1.0) * (9.0 - s) / 8.0 / x2
        rows += [(s, x1, x2, 0.0), (s, x2, x1, 0.0)]
    return _solve("u-zero", rows)


def solve_ledger_unonzero(*grid: float) -> list[LedgerSolution]:
    """Solution families with u != 0 at each given S in (1/3, (7 - sqrt(17))/2), in order.

    P = S(4-S)(3S-1) / (8(8-3S)) and the discriminant
    Delta = S(-3S^2+3S+4) / (2(8-3S)) are positive on the interval, so
    V, W = (S +- sqrt(Delta))/2 are two positive roots, and
    u^2 = 4 (8 - 7S + S^2) / (8 - 3S) t^4 falls from 208/63 t^4 at S = 1/3
    to 0 at the upper end, inside the positive-definite bound 4 t^4.  Four
    solutions per S: both root orderings times both signs of u.  The small
    root is taken as P/big, exact to rounding as S -> 1/3.
    """
    rows = []
    for s in grid:
        lo, hi = S_INTERVAL_UNONZERO
        if not (lo < s < hi):
            raise InvalidParamsError(f"S must lie in the open interval ({lo:g}, {hi:g}), got {s:g}")
        delta = s * (-3.0 * s * s + 3.0 * s + 4.0) / (2.0 * (8.0 - 3.0 * s))
        big = (s + math.sqrt(delta)) / 2.0
        small = s * (4.0 - s) * (3.0 * s - 1.0) / (8.0 * (8.0 - 3.0 * s)) / big
        u = math.sqrt(4.0 * (8.0 - 7.0 * s + s * s) / (8.0 - 3.0 * s))
        rows += [(s, vv, ww, sign * u) for (vv, ww) in ((big, small), (small, big)) for sign in (1.0, -1.0)]
    return _solve("u-nonzero", rows)


# ----------------------------------------------------------------------
# end-to-end verification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Recomputed residuals and reductivity status of a LedgerSolution.

    ``residuals`` are absolute, ``relative_residuals`` the same over their
    frame-free scales; the verdict uses the relative ones.
    """

    passed: bool
    residuals: Mapping[str, float]
    naturally_reductive: bool
    expected_naturally_reductive: bool
    relative_residuals: Mapping[str, float]

    def summary(self) -> str:
        worst = max(self.relative_residuals.values())
        status = "PASS" if self.passed else "FAIL"
        return f"{status} (max relative residual {worst:.3g}, naturally reductive: {self.naturally_reductive})"


def verify_solution(sol: LedgerSolution, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Judge a solution by the residuals at its params: the evaluation its solver attached, else one made here.

    Passes iff every residual is at most ``tol`` times its scale, those of
    the relative residuals, and the naturally-reductive status
    matches the expectation, which does not depend on tol: true only at
    the round point u = 0, V = W = 1 of ``sol.params``, which neither
    family contains.
    """
    p = sol.params
    residuals, relative, nr = sol._evaluation or _evaluate([p])[0]
    expect_nr = p.u == 0.0 and abs(p.v) == abs(p.w) == abs(p.t)
    passed = max(r for _, r in relative) <= tol and nr == expect_nr
    return VerificationReport(
        passed=passed,
        residuals=dict(residuals),
        naturally_reductive=nr,
        expected_naturally_reductive=expect_nr,
        relative_residuals=dict(relative),
    )
