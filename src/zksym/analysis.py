"""Structural predicates and parameter-family solvers.

Everything is computed in the root-space frame of :mod:`zksym.geometry`,
where the first Ledger condition L = 0 is two collinearity determinants
D_alpha = 0.  After the substitution V = v^2/t^2, W = w^2/t^2, S = V + W,
P = V W (and U = u/t^2 when u != 0) they admit closed-form solution
families, one branch with u = 0 and one with u != 0.  The solvers below
return the families normalized at t = 1 with their residuals; each point's
cached geometry forms the Ledger readouts and ``metric`` the Gram defect;
this module judges them and assembles records.  A +-u pair, the same point
up to the Weyl reflection e2 -> -e2, reads one geometry, and the CLI judges
each record by the eta_alpha its solve formed (:func:`_rows`).  Two more
sets satisfy L = 0 and no solver returns them: the metrics with v = w, of
which only the round point u = 0, v^2 = w^2 = t^2 is naturally reductive,
and a second u != 0 arc, S in (4, (7 + sqrt(17))/2)
(:func:`solve_ledger_unonzero`).

Every point verdict is a relative backward error in x = (t^2 + u/2,
t^2 - u/2, v^2, w^2), frame-free and scale-free: eps_J to an equality of
x (natural reductivity, isometries), eta_alpha to D_alpha = 0 (Ledger, in
``ledger`` and :func:`verify_solution` alike: a solution verifies exactly
where ``ledger`` reads satisfied, whoever built it).  The adapted frame
(A~1..C~2), in which reports name frame triples, is for presentation
only; the four reduced equations written in it are closed combinations
of D1, D2 (:func:`ledger_system_residuals`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

from . import geometry
from .metric import DEFAULT_TOL, FRAME_NAMES, InvalidParamsError, MetricParams, _gram_defect

if TYPE_CHECKING:
    import numpy as np

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
    """Naturally-reductive verdict, with max |<U(X,Y),Z>| over adapted frame triples and a triple attaining it."""

    naturally_reductive: bool
    max_coefficient: float
    witness: tuple[str, str, str] | None

    def __bool__(self) -> bool:
        return self.naturally_reductive


def is_naturally_reductive(p: MetricParams, tol: float = DEFAULT_TOL) -> ReductivityReport:
    """Test whether the metric is naturally reductive (U vanishes on m).

    U = 0 exactly where x1 = x2 = x3 = x4 (u = 0, v^2 = w^2 = t^2), so the
    test is (max x - min x) / (max x + min x) <= tol.  The witness names an
    adapted frame triple (X, Y, Z) maximizing |<U(X,Y),Z>| when it fails.
    """
    geo = geometry._cached_geometry(p)
    u_max, (i, j, k) = geo.u_max
    if geo.equal("1234", tol):
        return ReductivityReport(True, u_max, None)
    return ReductivityReport(False, u_max, (FRAME_NAMES[i], FRAME_NAMES[j], FRAME_NAMES[k]))


def first_ledger_verdict(p: MetricParams, tol: float = DEFAULT_TOL) -> tuple[float, bool]:
    """max|L| over adapted frame triples, and whether the first Ledger condition holds to tol.

    L = 0 iff the two collinearity determinants D_alpha of
    :mod:`zksym.geometry` vanish.  Each passes, as in :func:`verify_solution`,
    where its backward error eta_alpha = |D_alpha| / sum_k |x_k dD_alpha/dx_k|
    is at most tol: there a relative move of x by tol reaches D_alpha = 0, to
    first order.  The float eta_alpha is within 32 eps (eta_alpha (1 +
    x_alpha / (x3 + x4 + x_beta)) + 1) of that of the exact x of the binary
    parameters (its middle term is the Q-form's cancellation near the K
    guard with v, w small), so the verdict is exact outside that band around
    tol.  Raises DegenerateMetricError where a determinant or one of its
    partials is not finite.
    """
    geo = geometry._cached_geometry(p)
    return geo.ledger_max, geo.evaluation()[2] <= tol  # the larger eta_alpha


def infinitesimal_isometries(p: MetricParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the X in m whose ad(X)_m is skew for the metric.

    Solves B([X,Y]_m, Z) + B(Y, [X,Z]_m) = 0, that is <U(Y, Z), X> = 0, over all
    frame pairs (Y, Z) as a linear system in X.  Its kernel is a sum of
    modules: both A where v^2 = w^2, B where u = 0 and w^2 = t^2, C where
    u = 0 and v^2 = t^2, each equality of x to a relative tol as in
    :func:`is_naturally_reductive`.  Columns of the (8, dim) array are
    A~1..A~4, then the root vectors of B and C, in adapted frame coordinates
    (entries 0, +-1).  At v = w the space is 4-dimensional, yet probes of
    Singer's stabilizer find the isometry algebra so(5) there: it holds no
    extra Killing fields.
    """
    import numpy as np  # loaded only where an array is formed: ``isometries`` prints the geometry's floats
    return np.array(geometry._cached_geometry(p).isometries(tol), dtype=float).reshape(-1, 8).T


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
    v^2 = w^2 (``tests/test_symbolic.py`` proves all of this).  The point's
    cached geometry forms them on each call, from D_alpha at the unit scale.
    Raises DegenerateMetricError when one overflows.
    """
    import numpy as np  # loaded only where an array is formed: ``ledger`` prints the geometry's floats
    return np.array(geometry._cached_geometry(p).reduced_system)


# ----------------------------------------------------------------------
# solution families of the first Ledger condition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerSolution:
    """Admissible parameter tuple solving the first Ledger condition.

    V = v^2/t^2 and W = w^2/t^2 at the normalization t = 1; Usq = u^2/t^4
    (zero on the u-zero branch).  ``residuals`` reports, computed in the
    root frame, ||L|| in Frobenius norm ("ledger"), the larger |D_alpha|
    ("star") and the root frame's orthonormality defect ("gram"), as
    :func:`verify_solution` recomputes them at ``params``; it judges the
    larger eta_alpha alone, none of these.
    ``naturally_reductive`` is the ``check-nr`` verdict at DEFAULT_TOL, whatever tol the caller uses.
    """

    branch: str
    S: float
    V: float
    W: float
    Usq: float
    params: MetricParams
    residuals: dict[str, float]  # a dict: asdict copies a dict, and deep-copies any other mapping or fails
    naturally_reductive: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _evaluate(p: MetricParams) -> tuple[dict[str, float], float, bool]:
    """A record's absolute residuals, reported, not judged: ||L|| in Frobenius norm ("ledger"), the larger |D_alpha|
    ("star") and the root frame's orthonormality defect for the Gram matrix of :func:`build_form` ("gram", formed
    here from p); then the larger eta_alpha, which ``ledger`` and verification judge, and naturally reductive.  All
    are read at (t, |u|, v, w): u -> -u swaps x1 and x2, the Weyl reflection e2 -> -e2, which leaves them bit for
    bit, so a +-u pair has one cached geometry, which forms the rest on each call (its ``evaluation``): a solve forms
    them once per pair (:func:`_rows`), each verification of either sign once, and each reads them in a new dict."""
    p = MetricParams(p.t, -p.u, p.v, p.w) if p.u < 0.0 else p
    norm_ledger, star, eta, nr = geometry._cached_geometry(p).evaluation()
    return {"ledger": norm_ledger, "star": star, "gram": _gram_defect(p)}, eta, nr


def _u0_roots(s: float) -> tuple[tuple[float, float, float], ...]:
    disc = (3.0 * s * s - 10.0 * s + 9.0) / 2.0
    x2 = (s + math.sqrt(disc)) / 2.0
    x1 = (s - 1.0) * (9.0 - s) / 8.0 / x2
    return (x1, x2, 0.0), (x2, x1, 0.0)


def _unonzero_roots(s: float) -> list[tuple[float, float, float]]:
    delta = s * (-3.0 * s * s + 3.0 * s + 4.0) / (2.0 * (8.0 - 3.0 * s))
    big = (s + math.sqrt(delta)) / 2.0
    # 3S - 1 rounds to 0 at the first float above 1/3, where it is the Fast2Sum error of 2S + S
    small = s * (4.0 - s) * (3.0 * s - 1.0 or (2.0 * s - 3.0 * s) + s) / (8.0 * (8.0 - 3.0 * s)) / big
    u = math.sqrt(4.0 * (8.0 - 7.0 * s + s * s) / (8.0 - 3.0 * s))
    return [(vv, ww, sign * u) for (vv, ww) in ((big, small), (small, big)) for sign in (1.0, -1.0)]


# the CLI's --branch: the record's branch, the open S interval and the (V, W, u) rows at an S
_BRANCHES = {"u0": ("u-zero", S_INTERVAL_U0, _u0_roots), "u1": ("u-nonzero", S_INTERVAL_UNONZERO, _unonzero_roots)}


def _quoting(values: Iterable[float], bounds: tuple[float, float]) -> Callable[[float], str]:
    """%g, or repr where %g prints one of the values as it prints a bound and does not show the two equal."""
    g = "{:g}".format
    return repr if any(g(s) == g(b) and not float(g(s)) == s == b for s in values for b in bounds) else g


def _rows(branch: str, grid: Iterable[float]) -> Iterator[tuple[tuple, float]]:
    """The solutions of ``branch`` ("u0" or "u1") at t = 1 at each S of the grid, in order, each as the tuple of its
    LedgerSolution fields, with the residuals of its point's :func:`_evaluate`, and the larger eta_alpha that
    :func:`verify_solution` compares, drawn one S at a time; raises on an S outside the interval when it reaches it.
    A -u row follows its +u twin, equal but in u's sign, and takes its evaluation, the residuals in a new dict."""
    name, (lo, hi), roots = _BRANCHES[branch]
    for s in grid:
        if not (lo < s < hi):
            q = _quoting([s], (lo, hi))
            raise InvalidParamsError(f"S must lie in the open interval ({q(lo)}, {q(hi)}), got {q(s)}")
        for vv, ww, u in roots(s):
            p = MetricParams(1.0, u, math.sqrt(vv), math.sqrt(ww))
            residuals, eta, nr = (dict(residuals), eta, nr) if u < 0.0 else _evaluate(p)
            yield (name, s, vv, ww, u * u, p, residuals, nr), eta


def solve_ledger_u0(*grid: float) -> list[LedgerSolution]:
    """Solution families with u = 0 at each given S = V + W in (1, 9), in order.

    V and W are the two roots of X^2 - S X + P with P = (S - 1)(9 - S)/8;
    the two solutions per S realize both root orderings (v^2, w^2) =
    (X1, X2) t^2 and (X2, X1) t^2.  The small root is taken as X1 = P/X2,
    which keeps full precision where P -> 0 at either end of the interval.
    """
    return [LedgerSolution(*row) for row, _ in _rows("u0", grid)]


def solve_ledger_unonzero(*grid: float) -> list[LedgerSolution]:
    """Solution families with u != 0 at each given S in (1/3, (7 - sqrt(17))/2), in order.

    P = S(4-S)(3S-1) / (8(8-3S)) and the discriminant
    Delta = S(-3S^2+3S+4) / (2(8-3S)) are positive on the interval, so
    V, W = (S +- sqrt(Delta))/2 are two positive roots, and
    u^2 = 4 (8 - 7S + S^2) / (8 - 3S) t^4 falls from 208/63 t^4 at S = 1/3
    to 0 at the upper end, inside the positive-definite bound 4 t^4.  Four
    solutions per S: both root orderings times both signs of u, each sign
    pair with one geometry.  The small root is taken as P/big, exact to
    rounding as S -> 1/3.  The same formulas give a second arc, S in
    (4, (7 + sqrt(17))/2), which no solver returns.
    """
    return [LedgerSolution(*row) for row, _ in _rows("u1", grid)]


# ----------------------------------------------------------------------
# end-to-end verification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Recomputed residuals and reductivity status of a LedgerSolution.

    ``residuals`` are absolute; ``relative_residuals`` holds the larger
    eta_alpha ("star"), which the verdict uses.
    """

    passed: bool
    residuals: Mapping[str, float]
    naturally_reductive: bool
    relative_residuals: Mapping[str, float]

    def summary(self) -> str:
        worst = max(self.relative_residuals.values())
        status = "PASS" if self.passed else "FAIL"
        return f"{status} (max relative residual {worst:.3g}, naturally reductive: {self.naturally_reductive})"


def verify_solution(sol: LedgerSolution, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Judge a solution by the larger eta_alpha :func:`_evaluate` recomputes at its params.

    Passes iff it is at most ``tol``: a solution verifies exactly where
    ``ledger`` reads satisfied at ``sol.params``, whoever built it.  The
    absolute residuals, "gram" among them, and the naturally-reductive
    status (the ``check-nr`` verdict at DEFAULT_TOL) are reported, not
    judged.  Each call evaluates at (t, |u|, v, w), so a -u solution reads
    its +u twin's geometry, for a solver's output usually still cached,
    and forms the evaluation that its solve formed once per +-u pair.
    """
    residuals, eta, nr = _evaluate(sol.params)
    return VerificationReport(
        passed=eta <= tol,
        residuals=residuals,
        naturally_reductive=nr,
        relative_residuals={"star": eta},
    )
