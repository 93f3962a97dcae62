"""Structural predicates and parameter-family solvers.

The first Ledger condition L = 0 restricts the adapted metrics.  On the
nontrivial frame triples it reduces to four scalar equations in the Ricci
entries; after the substitution V = v^2/t^2, W = w^2/t^2, S = V + W,
P = V W (and U = u/t^2 when u != 0) those admit closed-form solution
families, one branch with u = 0 and one with u != 0.  The solvers below
return the families normalized at t = 1 together with their numerically
recomputed residuals; callers rescale t at will.  All solutions of one
call, at one S or many, are evaluated in one stacked pass.

The metrics with v = w form a third family that satisfies L = 0 and that
no solver returns; of it only the round point u = 0, v^2 = w^2 = t^2 is
naturally reductive.  Verdicts compare like scales, as set out in
:mod:`zksym.geometry`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import geometry
from .algebra import DEFAULT_TOL
from .metric import FRAME_NAMES, DegenerateMetricError, InvalidParamsError, MetricParams, build_form

S_INTERVAL_U0 = (1.0, 9.0)
S_MAX_UNONZERO = (7.0 - math.sqrt(17.0)) / 2.0
S_INTERVAL_UNONZERO = (1.0 / 3.0, S_MAX_UNONZERO)


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReductivityReport:
    """U-based naturally-reductive test: max |<U(X,Y),Z>| over frame triples."""

    naturally_reductive: bool
    max_coefficient: float
    witness: tuple[str, str, str] | None

    def __bool__(self) -> bool:
        return self.naturally_reductive


def is_naturally_reductive(p: MetricParams, tol: float = DEFAULT_TOL) -> ReductivityReport:
    """Test whether the metric is naturally reductive (U vanishes on m).

    U counts as zero up to tol * max|bracket table|.  The witness names a
    frame triple (X, Y, Z) maximizing |<U(X,Y),Z>| when the test fails.
    """
    geo = geometry._cached_geometry(p)
    if _reductive(geo, tol)[0]:
        return ReductivityReport(True, float(geo.max_u[0]), None)
    i, j, k = np.unravel_index(int(np.argmax(np.abs(geo.u[0]))), (8, 8, 8))
    return ReductivityReport(False, float(geo.max_u[0]), (FRAME_NAMES[i], FRAME_NAMES[j], FRAME_NAMES[k]))


def _reductive(geo, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The naturally-reductive verdict at each point of a stacked geometry: max|U| <= tol * max|bracket table|."""
    # two bracket coefficients multiply to 1/t^2, so the scale is at least 1/|t|, a normal float
    return geo.max_u <= tol * geo.max_cm


def first_ledger_verdict(p: MetricParams, tol: float = DEFAULT_TOL) -> tuple[float, bool]:
    """max|L| over frame triples, and whether it is at most tol * max|nabla table| * max|rho|.

    Where that bound is no normal float, L may have underflowed (at |t| =
    1e154 it is of order 1e-462), and the verdict is taken at the
    homothetic metric with |t| = 1, where the ratio is the same.  Raises
    DegenerateMetricError when the scale it judges by is no positive normal float.
    """
    geo = geometry._cached_geometry(p)
    max_l = lgr = float(geo.max_ledger[0])
    scale = float(geo.max_n[0]) * float(geo.max_rho[0])
    if not tol * scale >= sys.float_info.min:
        a = abs(p.t)
        geo = geometry._cached_geometry(MetricParams(p.t / a, p.u / a / a, p.v / a, p.w / a))
        scale, lgr = float(geo.max_n[0]) * float(geo.max_rho[0]), float(geo.max_ledger[0])
    if not sys.float_info.min <= scale <= sys.float_info.max:
        raise DegenerateMetricError(f"max|nabla table| * max|rho| = {scale:.3g} is no positive normal float")
    return max_l, lgr <= tol * scale


def infinitesimal_isometries(p: MetricParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the infinitesimal isometries contained in m.

    Solves B([X,Y]_m, Z) + B(Y, [X,Z]_m) = 0 over all frame pairs (Y, Z)
    as a linear system in X; the kernel is extracted by SVD with relative
    singular-value cutoff ``tol``.  Columns of the returned (8, dim) array
    are the basis vectors in frame coordinates.
    """
    # one row per frame pair i <= j: the equation is 2 <U(E_i, E_j), X> = 0, so row[x] = U[i, j, x]
    a = geometry.u_table(p)[np.triu_indices(8)]
    _, s, vh = np.linalg.svd(a)
    cutoff = tol * (s[0] if s.size and s[0] > 0 else 1.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].T.copy()


def ledger_system_residuals(p: MetricParams) -> np.ndarray:
    """The four reduced scalar equations of the first Ledger condition.

    ``_ledger_system`` holds them as a (4, 5) coefficient matrix over the
    Ricci entries (r11, r33, r55, r77, r14) of the orthonormal frame.  The
    eight frame triples where L = -2 sum_cyc rho(U(X,Y), Z) can be nonzero,
    (A~i, B~j, C~k) with j = k for i = 1, 4 and j != k for i = 2, 3, each
    carry one equation times +-1/t, +-1/(vw), -1/(tvw) or -1/(Kvw), so all
    four vanish iff L = 0.  The rank is at most 3, as v w eq3 = u/(2tK) eq4
    - K eq2, and 3 off u = 0 and v^2 = w^2 (``tests/test_symbolic.py``
    proves all three).  Raises DegenerateMetricError when a residual overflows.
    """
    return _ledger_system([p], geometry._cached_geometry(p).rho)[1][0]


# frame index pairs of the Ricci entries r11, r33, r55, r77, r14
_RICCI_ENTRIES = ([0, 2, 4, 6, 0], [0, 2, 4, 6, 3])


def _ledger_system(points, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reduced equations of each point as an (N, 4, 5) coefficient array over the Ricci entries, and their values.

    Row i of point n is equation i; column j multiplies entry j of (r11,
    r33, r55, r77, r14), read from rho[n] (a stack, (N, 8, 8)) at
    ``_RICCI_ENTRIES``.  The coefficients are formed from ratios of like
    scales (u/(2t) and K scale as t, (v^2 - w^2)/(vw) and w/v are
    scale-free), so no intermediate product overflows where the
    coefficients themselves do not.  Raises DegenerateMetricError when a
    residual overflows.
    """
    coef = []
    for p in points:  # in Python floats, several times faster than numpy for the few points of a solve
        t, u, v, w, k = p.t, p.u, p.v, p.w, p.K
        t2, v2, w2, k2 = t * t, v * v, w * w, k * k
        half_u_t = u / (2 * t)
        d_vw = (v2 - w2) / (v * w)
        coef.append([
            [v2 - w2, 0.0, w2 - t2, t2 - v2, half_u_t / k * (w2 - v2)],
            [0.0, 0.0, -half_u_t, half_u_t, (v2 - w2) / k],
            [0.0, half_u_t * d_vw / k, half_u_t * (w / v) / k, -half_u_t * (v / w) / k, -d_vw],
            [0.0, v2 - w2, w2 - k2, k2 - v2, 0.0],
        ])
    coef = np.array(coef)
    with np.errstate(all="ignore"):  # overflow shows up as a non-finite residual below
        star = (coef * rho[:, None, _RICCI_ENTRIES[0], _RICCI_ENTRIES[1]]).sum(axis=2)  # the same sum at any N
    finite = np.isfinite(star).all(axis=1)
    if not finite.all():
        raise DegenerateMetricError(f"reduced Ledger system residuals are not finite: {star[~finite][0].tolist()}")
    return coef, star


# ----------------------------------------------------------------------
# solution families of the first Ledger condition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerSolution:
    """Admissible parameter tuple solving the first Ledger condition.

    V = v^2/t^2 and W = w^2/t^2 at the normalization t = 1; Usq = u^2/t^4
    (zero on the u-zero branch).  ``residuals`` reports the recomputed
    max |L| over frame triples ("ledger"), the max residual of the reduced
    system ("star") and the frame-orthonormality defect ("gram").  A solver
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
    """Per point, in one stacked pass: absolute residuals, the same over max(1, their scale), naturally reductive.

    The residuals come as (name, value) pairs.  A scale is the size the
    cancelling terms could have, since the Ricci entries carry rounding
    relative to max|rho|: max|nabla table| * max|rho| for the Ledger form,
    the row sum of |coefficient| times max|rho| for each reduced equation
    ("star"), and 1 for the frame-orthonormality defect.  Callers make
    their own dicts of the immutable pairs.
    """
    geo = geometry.stacked_geometry(points)
    coef, signed = _ledger_system(points, geo.rho)
    star = np.abs(signed)
    grams = np.array([build_form(p).gram for p in points])
    gram_defect = np.abs(geo.frame.transpose(0, 2, 1) @ grams @ geo.frame - np.eye(8)).max(axis=(1, 2))
    with np.errstate(over="ignore"):  # an overflowing scale leaves a relative residual at 0
        rel_lgr = geo.max_ledger / np.maximum(1.0, geo.max_n * geo.max_rho)
        rel_star = (star / np.maximum(1.0, np.abs(coef).sum(axis=2) * geo.max_rho[:, None])).max(axis=1)
    columns = (geo.max_ledger, star.max(axis=1), gram_defect, rel_lgr, rel_star, _reductive(geo))
    return [
        ((("ledger", a), ("star", b), ("gram", g)), (("ledger", ra), ("star", rb), ("gram", g)), nr)
        for a, b, g, ra, rb, nr in zip(*(column.tolist() for column in columns))
    ]


def _solve(branch: str, rows: list[tuple[float, float, float, float]]) -> list[LedgerSolution]:
    """The solutions (S, V, W, u) at t = 1, evaluated together in one stacked pass."""
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

    ``residuals`` are absolute, ``relative_residuals`` the same over
    max(1, their scale); the verdict uses the relative ones.
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

    Passes iff every residual is at most ``tol * max(1, scale)``, with the
    scales of the relative residuals, and the naturally-reductive status
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
