"""Structural predicates and parameter-family solvers.

The first Ledger condition L = 0 restricts the adapted metrics.  On the
nontrivial frame triples it reduces to four scalar equations in the Ricci
entries; after the substitution V = v^2/t^2, W = w^2/t^2, S = V + W,
P = V W (and U = u/t^2 when u != 0) those admit closed-form solution
families, one branch with u = 0 and one with u != 0.  The solvers below
return the families normalized at t = 1 together with their numerically
recomputed residuals; callers rescale t at will.

The metrics with v = w form a third family that satisfies L = 0 and that
no solver returns; of it only the round point u = 0, v^2 = w^2 = t^2 is
naturally reductive.  Verdicts compare like scales, as set out in
:mod:`zksym.geometry`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import geometry
from .algebra import DEFAULT_TOL
from .metric import FRAME_NAMES, DegenerateMetricError, InvalidParamsError, MetricParams, build_form, orthonormal_frame

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
    ut = geometry.u_table(p)
    # two bracket coefficients multiply to 1/t^2, so the scale is at least 1/|t|, a normal float
    scale = float(np.max(np.abs(geometry.bracket_table(p))))
    max_abs = float(np.max(np.abs(ut)))
    if max_abs <= tol * scale:
        return ReductivityReport(True, max_abs, None)
    i, j, k = np.unravel_index(int(np.argmax(np.abs(ut))), ut.shape)
    return ReductivityReport(False, max_abs, (FRAME_NAMES[i], FRAME_NAMES[j], FRAME_NAMES[k]))


def first_ledger_verdict(p: MetricParams, tol: float = DEFAULT_TOL) -> tuple[float, bool]:
    """max|L| over frame triples, and whether it is at most tol * max|nabla table| * max|rho|.

    Where that bound is no normal float, L may have underflowed (at |t| =
    1e154 it is of order 1e-462), and the verdict is taken at the
    homothetic metric with |t| = 1, where the ratio is the same.  Raises
    DegenerateMetricError when the scale it judges by is no positive normal float.
    """
    max_l = lgr = float(np.max(np.abs(geometry.ledger_table(p))))
    scale = _ledger_scale(p)
    if not tol * scale >= sys.float_info.min:
        a = abs(p.t)
        q = MetricParams(p.t / a, p.u / a / a, p.v / a, p.w / a)
        scale, lgr = _ledger_scale(q), float(np.max(np.abs(geometry.ledger_table(q))))
    if not sys.float_info.min <= scale <= sys.float_info.max:
        raise DegenerateMetricError(f"max|nabla table| * max|rho| = {scale:.3g} is no positive normal float")
    return max_l, lgr <= tol * scale


def _ledger_scale(p: MetricParams) -> float:
    return float(np.max(np.abs(geometry.nomizu_table(p)))) * float(np.max(np.abs(geometry.ricci(build_form(p)))))


def infinitesimal_isometries(p: MetricParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the infinitesimal isometries contained in m.

    Solves B([X,Y]_m, Z) + B(Y, [X,Z]_m) = 0 over all frame pairs (Y, Z)
    as a linear system in X; the kernel is extracted by SVD with relative
    singular-value cutoff ``tol``.  Columns of the returned (8, dim) array
    are the basis vectors in frame coordinates.
    """
    cm = geometry.bracket_table(p)
    # one row per frame pair i <= j: row[x] = cm[x, i, j] + cm[x, j, i]
    a = (cm + cm.transpose(0, 2, 1)).transpose(1, 2, 0)[np.triu_indices(8)]
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
    return _ledger_system(p, geometry.ricci(build_form(p)))[1]


# frame index pairs of the Ricci entries r11, r33, r55, r77, r14
_RICCI_ENTRIES = ([0, 2, 4, 6, 0], [0, 2, 4, 6, 3])


def _ledger_system(p: MetricParams, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reduced equations as a (4, 5) coefficient matrix over the Ricci entries, and their values at rho.

    Row i is equation i; column j multiplies entry j of (r11, r33, r55, r77,
    r14), read from rho at ``_RICCI_ENTRIES``.  The coefficients are formed
    from ratios of like scales (u/(2t) and K scale as t, (v^2 - w^2)/(vw)
    and w/v are scale-free), so no intermediate product overflows where the
    coefficients themselves do not.  Raises DegenerateMetricError when a
    residual overflows.
    """
    t, u, v, w = p.t, p.u, p.v, p.w
    k = p.K
    t2, v2, w2, k2 = t * t, v * v, w * w, k * k
    half_u_t = u / (2 * t)
    d_vw = (v2 - w2) / (v * w)
    coef = np.array([
        [v2 - w2, 0.0, w2 - t2, t2 - v2, half_u_t / k * (w2 - v2)],
        [0.0, 0.0, -half_u_t, half_u_t, (v2 - w2) / k],
        [0.0, half_u_t * d_vw / k, half_u_t * (w / v) / k, -half_u_t * (v / w) / k, -d_vw],
        [0.0, v2 - w2, w2 - k2, k2 - v2, 0.0],
    ])
    with np.errstate(all="ignore"):  # overflow shows up as a non-finite residual below
        star = coef @ rho[_RICCI_ENTRIES]
    if not np.all(np.isfinite(star)):
        raise DegenerateMetricError(f"reduced Ledger system residuals are not finite: {star.tolist()}")
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
    system ("star") and the frame-orthonormality defect ("gram").
    """

    branch: str
    S: float
    V: float
    W: float
    Usq: float
    params: MetricParams
    residuals: Mapping[str, float]
    naturally_reductive: bool

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


@lru_cache(maxsize=256)
def _solution_residuals(p: MetricParams) -> tuple[_Residuals, _Residuals, bool]:
    """Absolute residuals, the same over max(1, their scale), and the naturally-reductive status.

    The residuals come as (name, value) pairs.  A scale is the size the
    cancelling terms could have, since the Ricci entries carry rounding
    relative to max|rho|: max|nabla table| * max|rho| for the Ledger form,
    the row sum of |coefficient| times max|rho| for each reduced equation
    ("star"), and 1 for the frame-orthonormality defect.  Cached like the
    geometry, so a solution and its verification evaluate it once; callers
    make their own dicts of the immutable pairs.
    """
    form = build_form(p)
    rho = geometry.ricci(form)
    rho_max = float(np.max(np.abs(rho)))
    coef, signed = _ledger_system(p, rho)
    star = np.abs(signed)
    star_scale = np.abs(coef).sum(axis=1) * rho_max
    lgr = float(np.max(np.abs(geometry.ledger_table(p))))
    f = orthonormal_frame(p).matrix
    gram_defect = float(np.max(np.abs(f.T @ form.gram @ f - np.eye(8))))
    absolute = (("ledger", lgr), ("star", float(star.max())), ("gram", gram_defect))
    relative = (
        ("ledger", lgr / max(1.0, float(np.max(np.abs(geometry.nomizu_table(p)))) * rho_max)),
        ("star", float(np.max(star / np.maximum(1.0, star_scale)))),
        ("gram", gram_defect),
    )
    return absolute, relative, is_naturally_reductive(p).naturally_reductive


def _make_solution(branch: str, s: float, vv: float, ww: float, u: float) -> LedgerSolution:
    params = MetricParams(1.0, u, math.sqrt(vv), math.sqrt(ww))
    residuals, _, nr = _solution_residuals(params)
    return LedgerSolution(
        branch=branch, S=s, V=vv, W=ww, Usq=u * u, params=params, residuals=dict(residuals), naturally_reductive=nr
    )


def solve_ledger_u0(s: float) -> list[LedgerSolution]:
    """Solution families with u = 0 at a given S = V + W in (1, 9).

    V and W are the two roots of X^2 - S X + P with P = (S - 1)(9 - S)/8;
    the two returned solutions realize both root orderings (v^2, w^2) =
    (X1, X2) t^2 and (X2, X1) t^2.  The small root is taken as X1 = P/X2,
    which keeps full precision where P -> 0 at either end of the interval.
    """
    lo, hi = S_INTERVAL_U0
    if not (lo < s < hi):
        raise InvalidParamsError(f"S must lie in the open interval ({lo:g}, {hi:g}), got {s:g}")
    disc = (3.0 * s * s - 10.0 * s + 9.0) / 2.0
    x2 = (s + math.sqrt(disc)) / 2.0
    x1 = (s - 1.0) * (9.0 - s) / 8.0 / x2
    return [
        _make_solution("u-zero", s, x1, x2, 0.0),
        _make_solution("u-zero", s, x2, x1, 0.0),
    ]


def solve_ledger_unonzero(s: float) -> list[LedgerSolution]:
    """Solution families with u != 0 at a given S in (1/3, (7 - sqrt(17))/2).

    P = S(4-S)(3S-1) / (8(8-3S)) and the discriminant
    Delta = S(-3S^2+3S+4) / (2(8-3S)) are positive on the interval, so
    V, W = (S +- sqrt(Delta))/2 are two positive roots, and
    u^2 = 4 (8 - 7S + S^2) / (8 - 3S) t^4 falls from 208/63 t^4 at S = 1/3
    to 0 at the upper end, inside the positive-definite bound 4 t^4.  Up to
    four solutions are returned: both root orderings times both signs of u.
    The small root is taken as P/big, exact to rounding as S -> 1/3.
    """
    lo, hi = S_INTERVAL_UNONZERO
    if not (lo < s < hi):
        raise InvalidParamsError(f"S must lie in the open interval ({lo:g}, {hi:g}), got {s:g}")
    delta = s * (-3.0 * s * s + 3.0 * s + 4.0) / (2.0 * (8.0 - 3.0 * s))
    big = (s + math.sqrt(delta)) / 2.0
    small = s * (4.0 - s) * (3.0 * s - 1.0) / (8.0 * (8.0 - 3.0 * s)) / big
    usq = 4.0 * (8.0 - 7.0 * s + s * s) / (8.0 - 3.0 * s)
    u = math.sqrt(usq)
    return [
        _make_solution("u-nonzero", s, vv, ww, sign * u)
        for (vv, ww) in ((big, small), (small, big))
        for sign in (1.0, -1.0)
    ]


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
    """Recompute Ricci, Ledger and reduced-system residuals for a solution.

    Passes iff every residual is at most ``tol * max(1, scale)``, with the
    scales of the relative residuals, and the naturally-reductive status
    matches the expectation, which does not depend on tol: true only at
    the round point u = 0, V = W = 1 of ``sol.params``, which neither
    family contains.
    """
    p = sol.params
    residuals, relative, nr = _solution_residuals(p)
    expect_nr = p.u == 0.0 and abs(p.v) == abs(p.w) == abs(p.t)
    passed = max(r for _, r in relative) <= tol and nr == expect_nr
    return VerificationReport(
        passed=passed,
        residuals=dict(residuals),
        naturally_reductive=nr,
        expected_naturally_reductive=expect_nr,
        relative_residuals=dict(relative),
    )
