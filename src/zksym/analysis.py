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
from typing import Mapping

import numpy as np

from . import geometry
from .algebra import DEFAULT_TOL
from .metric import FRAME_NAMES, InvalidParamsError, MetricParams, build_form, orthonormal_frame

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
    L = 0 on the nontrivial frame triples.
    """
    rho = geometry.ricci(build_form(p))
    t, u, v, w = p.t, p.u, p.v, p.w
    k = p.K
    t2, v2, w2, k2 = t * t, v * v, w * w, k * k
    r11, r33, r55, r77 = rho[0, 0], rho[2, 2], rho[4, 4], rho[6, 6]
    r14 = rho[0, 3]
    eqs = [
        (v2 - w2) * r11 + (w2 - t2) * r55 + (t2 - v2) * r77 + u * (w2 - v2) / (2 * t * k) * r14,
        -u / (2 * t) * r55 + u / (2 * t) * r77 + (v2 - w2) / k * r14,
        u * (v2 - w2) / (2 * t * v * w * k) * r33
        + u * w / (2 * t * v * k) * r55
        - (v2 - w2) / (v * w) * r14
        - u * v / (2 * t * w * k) * r77,
        (v2 - w2) * r33 + (w2 - k2) * r55 + (k2 - v2) * r77,
    ]
    return np.array(eqs)


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


def _solution_residuals(p: MetricParams) -> dict[str, float]:
    lgr = float(np.max(np.abs(geometry.ledger_table(p))))
    star = float(np.max(np.abs(ledger_system_residuals(p))))
    f = orthonormal_frame(p).matrix
    gram_defect = float(np.max(np.abs(f.T @ build_form(p).gram @ f - np.eye(8))))
    return {"ledger": lgr, "star": star, "gram": gram_defect}


def _make_solution(branch: str, s: float, vv: float, ww: float, u: float) -> LedgerSolution:
    params = MetricParams(1.0, u, math.sqrt(vv), math.sqrt(ww))
    return LedgerSolution(
        branch=branch,
        S=s,
        V=vv,
        W=ww,
        Usq=u * u,
        params=params,
        residuals=_solution_residuals(params),
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
    """Recomputed residual and reductivity status of a LedgerSolution."""

    passed: bool
    residuals: Mapping[str, float]
    naturally_reductive: bool
    expected_naturally_reductive: bool

    def summary(self) -> str:
        worst = max(self.residuals.values())
        status = "PASS" if self.passed else "FAIL"
        return f"{status} (max residual {worst:.3g}, naturally reductive: {self.naturally_reductive})"


def verify_solution(sol: LedgerSolution, tol: float = 1e-8) -> VerificationReport:
    """Recompute Ricci, Ledger and reduced-system residuals for a solution.

    Passes iff every residual is at most ``tol`` and the naturally-reductive
    status matches the expectation for the branch: false unless u = 0 and
    V = W = 1.
    """
    residuals = _solution_residuals(sol.params)
    nr = is_naturally_reductive(sol.params).naturally_reductive
    expect_nr = (
        abs(sol.params.u) <= tol and abs(sol.V - 1.0) <= tol and abs(sol.W - 1.0) <= tol
    )
    passed = max(residuals.values()) <= tol and nr == expect_nr
    return VerificationReport(
        passed=passed,
        residuals=residuals,
        naturally_reductive=nr,
        expected_naturally_reductive=expect_nr,
    )
