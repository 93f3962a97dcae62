"""Structural predicates and parameter-family solvers.

The first Ledger condition L = 0 restricts the adapted metrics.  On the
nontrivial frame triples it reduces to four scalar equations in the Ricci
entries; after the substitution V = v^2/t^2, W = w^2/t^2, S = V + W,
P = V W (and U = u/t^2 when u != 0) those admit closed-form solution
families, one branch with u = 0 and one with u != 0.  The solvers below
return the families normalized at t = 1 together with their numerically
recomputed residuals; callers rescale t at will.
"""

from __future__ import annotations

import math
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

    The witness names a frame triple (X, Y, Z) maximizing |<U(X,Y),Z>|
    when the test fails.
    """
    ut = geometry.u_table(p)
    max_abs = float(np.max(np.abs(ut)))
    if max_abs <= tol:
        return ReductivityReport(True, max_abs, None)
    i, j, k = np.unravel_index(int(np.argmax(np.abs(ut))), ut.shape)
    return ReductivityReport(False, max_abs, (FRAME_NAMES[i], FRAME_NAMES[j], FRAME_NAMES[k]))


def infinitesimal_isometries(p: MetricParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the infinitesimal isometries contained in m.

    Solves B([X,Y]_m, Z) + B(Y, [X,Z]_m) = 0 over all frame pairs (Y, Z)
    as a linear system in X; the kernel is extracted by SVD with relative
    singular-value cutoff ``tol``.  Columns of the returned (8, dim) array
    are the basis vectors in frame coordinates.
    """
    cm = geometry.bracket_table(p)
    rows = []
    for i in range(8):
        for j in range(i, 8):
            rows.append(cm[:, i, j] + cm[:, j, i])
    a = np.array(rows)
    _, s, vh = np.linalg.svd(a)
    cutoff = tol * (s[0] if s.size and s[0] > 0 else 1.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].T.copy()


def ledger_system_residuals(p: MetricParams) -> np.ndarray:
    """The four reduced scalar equations of the first Ledger condition.

    Evaluated with the trace-computed Ricci entries; all four vanish iff
    L = 0 on the nontrivial frame triples.  Raises DegenerateMetricError
    when a residual overflows.
    """
    rho = geometry.ricci(build_form(p))
    with np.errstate(all="ignore"):  # overflow shows up as a non-finite residual below
        star = np.array([sum(c * rho[ij] for c, ij in eq) for eq in _ledger_system(p)])
    if not np.all(np.isfinite(star)):
        raise DegenerateMetricError(f"reduced Ledger system residuals are not finite: {star.tolist()}")
    return star


# frame indices of the Ricci entries r11, r33, r55, r77, r14
_R11, _R33, _R55, _R77, _R14 = (0, 0), (2, 2), (4, 4), (6, 6), (0, 3)


def _ledger_system(p: MetricParams) -> list[list[tuple[float, tuple[int, int]]]]:
    """Each reduced equation as (coefficient, Ricci entry) pairs, summing their products.

    The coefficients are formed from ratios of like scales (u/(2t) and K
    scale as t, (v^2 - w^2)/(vw) and w/v are scale-free), so no
    intermediate product overflows where the coefficients themselves do not.
    """
    t, u, v, w = p.t, p.u, p.v, p.w
    k = p.K
    t2, v2, w2, k2 = t * t, v * v, w * w, k * k
    half_u_t = u / (2 * t)
    d_vw = (v2 - w2) / (v * w)
    return [
        [(v2 - w2, _R11), (w2 - t2, _R55), (t2 - v2, _R77), (half_u_t / k * (w2 - v2), _R14)],
        [(-half_u_t, _R55), (half_u_t, _R77), ((v2 - w2) / k, _R14)],
        [
            (half_u_t * d_vw / k, _R33),
            (half_u_t * (w / v) / k, _R55),
            (-d_vw, _R14),
            (-half_u_t * (v / w) / k, _R77),
        ],
        [(v2 - w2, _R33), (w2 - k2, _R55), (k2 - v2, _R77)],
    ]


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
def _solution_residuals(p: MetricParams) -> tuple[_Residuals, _Residuals]:
    """Absolute residuals, and each over max(1, its scale), as (name, value) pairs.

    A scale is the size the cancelling terms could have, since the Ricci
    entries carry rounding relative to max|rho|: max|nabla table| * max|rho|
    for the Ledger form, sum |coefficient| * max|rho| for each reduced
    equation ("star"), and 1 for the frame-orthonormality defect.  Cached
    like the geometry, so a solution and its verification compute them
    once; callers make their own dicts of the immutable pairs.
    """
    rho = geometry.ricci(build_form(p))
    rho_max = float(np.max(np.abs(rho)))
    lgr = float(np.max(np.abs(geometry.ledger_table(p))))
    eqs = [
        (abs(sum(c * rho[ij] for c, ij in eq)), sum(abs(c) for c, _ in eq) * rho_max)
        for eq in _ledger_system(p)
    ]
    f = orthonormal_frame(p).matrix
    gram_defect = float(np.max(np.abs(f.T @ build_form(p).gram @ f - np.eye(8))))
    absolute = (("ledger", lgr), ("star", float(max(r for r, _ in eqs))), ("gram", gram_defect))
    relative = (
        ("ledger", lgr / max(1.0, float(np.max(np.abs(geometry.nomizu_table(p)))) * rho_max)),
        ("star", float(max(r / max(1.0, scale) for r, scale in eqs))),
        ("gram", gram_defect),
    )
    return absolute, relative


def _make_solution(branch: str, s: float, vv: float, ww: float, u: float) -> LedgerSolution:
    params = MetricParams(1.0, u, math.sqrt(vv), math.sqrt(ww))
    return LedgerSolution(
        branch=branch,
        S=s,
        V=vv,
        W=ww,
        Usq=u * u,
        params=params,
        residuals=dict(_solution_residuals(params)[0]),
        naturally_reductive=is_naturally_reductive(params).naturally_reductive,
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
    u^2 = 4 (8 - 7S + S^2) / (8 - 3S) t^4 stays inside (0, 16) t^4.  Up to
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


def verify_solution(sol: LedgerSolution, tol: float = 1e-8) -> VerificationReport:
    """Recompute Ricci, Ledger and reduced-system residuals for a solution.

    Passes iff every residual is at most ``tol * max(1, scale)``, with the
    scales of the relative residuals, and the naturally-reductive status
    matches the expectation for the branch: false unless u = 0 and
    V = W = 1.
    """
    residuals, relative = map(dict, _solution_residuals(sol.params))
    nr = is_naturally_reductive(sol.params).naturally_reductive
    expect_nr = (
        abs(sol.params.u) <= tol and abs(sol.V - 1.0) <= tol and abs(sol.W - 1.0) <= tol
    )
    passed = max(relative.values()) <= tol and nr == expect_nr
    return VerificationReport(
        passed=passed,
        residuals=residuals,
        naturally_reductive=nr,
        expected_naturally_reductive=expect_nr,
        relative_residuals=relative,
    )
