"""Riemannian package of the flag manifold at the origin, computed in the root-space frame.

The torus of h splits m into four inequivalent root spaces, the column
pairs of a fixed orthogonal basis P, so every adapted form is diag(x) in P,
x = (t^2 + u/2, t^2 - u/2, v^2, w^2), and E = P diag(x)^(-1/2) is
orthonormal.  The structure constants c0 of m in P have 48 nonzeros, on the
module triples (alpha, e1, e2) of alpha = 1, 2, and every tensor lives on
them: C = c0 sqrt(x_k) / (sqrt(x_i) sqrt(x_j)), U[i, j, k] = (C[k, j, i] +
C[k, i, j]) / 2, nabla = U + C/2, rho = diag(r) (Besse, Einstein Manifolds,
Cor. 7.38, summed per triple as by Wang and Ziller) and L = -2 sum_cyc
rho(U(X,Y), Z) = -c0 D_alpha / sqrt(x_alpha x3 x4), where D_alpha =
(x3 - x_alpha) r4 + (x4 - x3) r_alpha + (x_alpha - x4) r3 is zero iff
(x_alpha, r_alpha), (x3, r3), (x4, r4) are collinear.  So a point's geometry is a few
scalars, formed in Python floats from the x / 4^e of :attr:`zksym.metric.MetricParams.unit_scalars`
(the exact homothety to 1 <= |t| < 2) with each x_k - x_j formed before a quotient, so nothing
loses digits near the K guard, in two stages.  The evaluation stage, :func:`_program`, runs when
a point is built and forms what a solve record reads: D_alpha once, as (x4 - x3) Q_alpha /
(2 x1 x2 x3 x4), its backward error eta_alpha = |D_alpha| / sum_k |x_k dD_alpha/dx_k| (a relative
distance in x, as each point verdict), lam_alpha and ||L||; :func:`_presentation` forms C and r.

The adapted frame of :func:`zksym.metric.orthonormal_frame` is for
presentation only: A~1 = sgn t (c E1 + s E3), A~2 = sgn t (c E2 + s E4),
A~3 = c E4 - s E2, A~4 = s E1 - c E3, B~i = sgn v E_{4+i}, C~i = sgn w E_{6+i}
with c, s = sqrt(x1, x2 / 2t^2): a rotation of each A root pair (a, a + 2) and the signs
of v and w, so each entry of its tables (48 slots) is a rotated pair of root entries (one
A index each).  These, their maxima and its Ricci matrix (8, 8) are floats, formed by
each call that reads them.  A bare Gram matrix g, finite, of positive diagonal and within
1e-9 max|g| of the adapted pattern P diag(x) P^T at (g00, g30, g44, g66), is read with no
factorization as (sqrt g00, 2 g30, sqrt g44, sqrt g66); numpy forms only the library's arrays
and raw m-vectors (basis A1..C2), which enter the root frame by diag(sqrt x) P^T, formed once per call.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from itertools import permutations
from operator import itemgetter

from .metric import DEFAULT_TOL, AdaptedForm, DegenerateMetricError, InvalidParamsError, MetricParams, _gram

__all__ = [
    "bracket_table",
    "curvature",
    "ledger",
    "ledger_table",
    "m_bracket",
    "nabla",
    "nomizu_table",
    "ricci",
    "u_map",
    "u_table",
]

# -B(P_i, P_i) / 2 per module, B the Killing form (-6 I on m), as numpy derives it from P: 3 + 1 ulp on A
_HALF_KILLING = [3.0000000000000004, 3.0000000000000004, 3.0, 3.0]

# c0 = sign / sqrt 2 on the permutations, by their parity, of these sorted triples (A, B, C) of P. Per support entry
# (i, j, k), in C order: 64 i + 8 j + k, c0, the ratio columns of k, i, j, L's sign (-c0 on the triple), alpha - 1
_TRIPLES = ((0, 4, 6, -1), (0, 5, 7, -1), (1, 4, 7, -1), (1, 5, 6, 1), (2, 4, 6, -1), (2, 5, 7, 1), (3, 4, 7, -1),
            (3, 5, 6, -1))
_INDEX, _C0, _RK, _RI, _RJ, _L_SIGN, _TRIPLE = zip(*sorted(
    (64 * i + 8 * j + k, (-1) ** ((i > j) + (i > k) + (j > k)) * sign * math.sqrt(0.5),
     *(2 * max(m // 2 - 1, 0) + a // 2 for m in (k, i, j)), -sign * math.sqrt(0.5), a // 2)
    for a, b, c, sign in _TRIPLES for i, j, k in permutations((a, b, c))))
# per adapted slot, in C order: the positions in _INDEX of the root entries of A index a, a ^ 2 (a = 0, 1) that Q
# rotates into the A columns a, a ^ 3 (each root entry has one A index), and its A column
_SUPPORT, _PAIRS = zip(*sorted(
    (index + ((b - a) << 3 * n), (_INDEX.index(index), _INDEX.index(index + (2 << 3 * n)), b))
    for index in _INDEX for n in range(3) if (a := index >> 3 * n & 7) < 2 for b in (a, a ^ 3)))
# the sets J of modules whose x_k the point verdicts compare, each with the getter of its y_k
_SETS = {name: itemgetter(*(int(k) - 1 for k in name)) for name in ("1234", "34", "124", "123")}


@cache
def _arrays() -> None:
    """Bind numpy, algebra._vector and so(5)'s arrays as globals, once, for raw vectors, a bare Gram matrix and the
    arrays the library returns; the CLI prints none of them, so only ``inspect`` among the commands loads numpy."""
    global np, _vector, _CM, _CH, _ADH, _P, _MODULE
    import numpy as np
    from .algebra import _vector
    from .so5 import build_so5

    # the root basis P: column i in raw coordinates, in the module _MODULE[i]
    p = np.eye(8)
    p[:4, :4] = np.sqrt(0.5) * np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, -1, 0, 1], [1, 0, -1, 0]])
    # bound when built, so a concurrent first call rebinds only finished arrays; CM, CH, ADH: see m_structure
    (_CM, _CH, _ADH), _P, _MODULE = build_so5().m_structure(), p, np.repeat(np.arange(4), 2)


def _m_vector(x) -> np.ndarray:
    """A raw m-vector, admitted by algebra._vector once :func:`_arrays` has bound it."""
    return _vector(x, 8, "m-vector")


def _program(e: int, y) -> tuple:
    """The evaluation stage, from a point's unit-scale (e, y): lam_alpha = D_alpha / sqrt(x_alpha x3 x4) at its scale,
    then at the unit scale D_alpha, eta_alpha (see :func:`_partials`) and the Frobenius norm of L, all that a solve
    record reads; it refuses a point where either stage overflows.  Its row is a function of (x_alpha, x_beta)
    alone, so where y1 == y2 (u = 0, or |u| below half an ulp of t^2) alpha = 2 reuses alpha = 1's, bit for bit."""
    if not 0.0 < (lo := min(y)) <= (hi := max(y)) < math.inf:  # an x that under- or overflows at this scale
        raise DegenerateMetricError("the curvature tensors overflow at this scale")
    if not (abs(e) <= 64 and 2.0**-100 <= lo and hi <= 2.0**100):  # only outside this box can the presentation
        _presentation(e, y)  # overflow: formed once here, it refuses such a point when it is built
    x1, x2, x3, x4 = y
    h = 0.5 * ((x4 - x3) / math.sqrt(x3) / math.sqrt(x4))
    rows = []
    for xa, xb in ((x1, x2), (x2, x1)):
        if rows and xa == xb:  # y1 == y2: the row of alpha = 2 is that of alpha = 1
            rows.append(rows[0])
            break
        # D_alpha = (x4 - x3) q / 2, q = Q_alpha / (x1 x2 x3 x4) with beta the other of 1, 2 and Q_alpha =
        # x_alpha (x3 + x4 - x_alpha)^2 + 8 x_beta (x_alpha - x3)(x_alpha - x4) - x_alpha (x_alpha^2 - x_beta^2),
        # which keeps the digits that the terms (x_i - x_j) r_k of D_alpha lose where they cancel (u = 0, w = t)
        d3, d4 = xa - x3, xa - x4
        s = x3 - d4 if abs(d4) <= abs(d3) else x4 - d3  # x3 + x4 - x_alpha, by the nearer difference
        c = ((xa - xb) / x3) * ((xa + xb) / x4) / xb
        q = (s / x3) * (s / x4) / xb + 8.0 * (d3 / x3) * (d4 / x4) / xa - c
        n, t1, t2, t3, t4 = _partials(xa, xb, x3, x4, d3, d4, s, q, c)
        total = abs(t1) + abs(t2) + abs(t3) + abs(t4)
        # eta_alpha = |n| / total: 0 where D_alpha = 0, +inf where its partials vanish but it does not, and nan
        # where a partial overflows, which ``ledger`` refuses
        eta = math.nan if not total < math.inf else abs(n) / total if total else math.inf if n else 0.0
        rows.append((0.5 * (x4 - x3) * q, eta, h / math.sqrt(xa) * q))
    (d1, eta1, l1), (d2, eta2, l2) = rows
    lam = [_ldexp(l1, -3 * e), _ldexp(l2, -3 * e)]  # at the point's scale, where |lam1| + |lam2| bounds max|L| too
    if not math.isfinite(abs(lam[0]) + abs(lam[1])):
        raise DegenerateMetricError("the curvature tensors overflow at this scale")
    # ||L||^2 = 12 ||lam||^2, as L is +-lam_alpha / sqrt 2 on the 24 entries of the triples of alpha
    return lam, [d1, d2], [eta1, eta2], math.sqrt((l1 * l1 + l2 * l2) * 12.0)


def _presentation(e: int, y) -> tuple[list[float], list[float]]:
    """The presentation stage: the six ratios (the magnitudes of C) and r, with the slots (k, i, j) = (alpha, e1, e2),
    (e1, alpha, e2), (e2, alpha, e1) of alpha's triple summed in that order.  Where |e| <= 64 and 2^-100 <= y_k <=
    2^100 no s_k exceeds 2^300 and no term 2^302, with no 0 or inf operand, so none overflows or is NaN: no raise."""
    x1, x2, x3, x4 = y
    k1, k2, k3, k4 = _HALF_KILLING
    i3, i4 = 1.0 / x3, 1.0 / x4
    rows = []
    for xa in (x1, x2):
        # the squared ratios of the slots and per slot (x_k^2 - x_i^2 - x_j^2) / (x_i x_j x_k), with
        # x_k^2 - x_j^2 exact where x_k = x_j
        s0, s1, s2 = xa / x3 / x4, x3 / xa / x4, x4 / xa / x3
        rows.append((math.sqrt(s0), math.sqrt(s1), math.sqrt(s2), (xa - x4) * (1.0 / xa + i4) / x3 - s1,
                     (x3 - x4) * (i3 + i4) / xa - s0, (x4 - x3) * (i4 + i3) / xa - s0))
    (c0, c1, c2, a0, a1, a2), (c3, c4, c5, b0, b1, b2) = rows
    e2, ldexp = 2 * e, math.ldexp
    try:  # the ratios slot-major and r at the point's scale
        ratios = [ldexp(c0, -e), ldexp(c3, -e), ldexp(c1, -e), ldexp(c4, -e), ldexp(c2, -e), ldexp(c5, -e)]
        r = [ldexp(k1 * (1.0 / x1) + 0.5 * a0, -e2), ldexp(k2 * (1.0 / x2) + 0.5 * b0, -e2),
             ldexp(k3 * i3 + (0.5 * a1 + 0.5 * b1), -e2), ldexp(k4 * i4 + (0.5 * a2 + 0.5 * b2), -e2)]
        finite = all(map(math.isfinite, ratios + r))
    except OverflowError:
        finite = False
    if not finite:
        raise DegenerateMetricError("the curvature tensors overflow at this scale")
    return ratios, r


def _partials(xa: float, xb: float, x3: float, x4: float, d3: float, d4: float, s: float, q: float,
              c: float) -> tuple[float, ...]:
    """D_alpha and x_k dD_alpha/dx_k for k = alpha, beta, 3, 4, each over x3 + x4, from the d3 = x_alpha - x3,
    d4 = x_alpha - x4, s, q and q's last term c of :func:`_program`: rho q and rho x_k dq/dx_k, in q's ratio style,
    with rho = (x4 - x3) / (2 (x3 + x4)), then -x3 q / (2 (x3 + x4)) added for k = 3 and +x4 q / (2 (x3 + x4)) for
    k = 4.  Each is at most |q| / 2 or |x_k dq/dx_k| / 2, whose terms are of the size of q's, however small x4 - x3
    is; the four partials sum to 0."""
    half = 0.5 * x3 + 0.5 * x4  # (x3 + x4) / 2, which does not overflow
    rho, g4 = 0.25 * (x4 - x3) / half, 2.0 * (half / x4)
    return (rho * q, rho * (8.0 * (xa / x3 / x4 - 1.0 / xa) - 2.0 * (xa / x3) * g4 / xb),
            rho * (((d3 + d4) / x3) * g4 / xb + xb / x3 / x4),
            rho * ((s / x3) * ((x3 + d4) / x4) / xb + c - 8.0 * (d4 / x3) / x4) - 0.25 * x3 / half * q,
            rho * ((s / x4) * ((x4 + d3) / x3) / xb + c - 8.0 * (d3 / x3) / x4) + 0.25 * x4 / half * q)


def _ldexp(x: float, n: int) -> float:
    """x 2^n, +-inf where that overflows, as np.ldexp (math.ldexp raises there)."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


def _dense(values, slots=_INDEX) -> np.ndarray:
    """A new (8, 8, 8) array of the values on their slots: the root frame support or the adapted one, _SUPPORT."""
    _arrays()
    out = np.zeros((8, 8, 8))
    np.put(out, slots, values)
    return out


class _Geometry:
    """One parameter point in the root frame, built only where both stages of its program are finite: it keeps its
    params, e, y and what :func:`_program` forms, and each call forms the rest it reads, the presentation at most once
    and its :meth:`evaluation` too.  It holds Python floats only, no array (:func:`_operator` forms the frames per
    call) and no reply: the CLI keeps those in its memo, ``cli._reply``."""

    def __init__(self, p: MetricParams):
        p.K  # the guard, which like an overflow in the program raises before anything is kept
        self.params = p
        self.e, self.y = p.unit_scalars
        self.lam, self.det, self.eta, self.norm_ledger = _program(self.e, self.y)

    ratios = property(lambda self: _presentation(self.e, self.y)[0])
    r = property(lambda self: _presentation(self.e, self.y)[1])
    # the support values of C, U, nabla (and L below), in the order of _INDEX, each from one read of the ratios
    c = property(lambda self: [c0 * x[k] for x in [self.ratios] for c0, k in zip(_C0, _RK)])
    u = property(lambda self: [c0 * (0.5 * (x[j] - x[i])) for x in [self.ratios] for c0, i, j in zip(_C0, _RI, _RJ)])
    n = property(lambda self: [c0 * (0.5 * (x[j] - x[i])) + 0.5 * (c0 * x[k]) for x in [self.ratios]
                               for c0, k, i, j in zip(_C0, _RK, _RI, _RJ)])

    # L on the support, +-lam_alpha on the triples of alpha, and max |L| over the adapted frame triples
    ledger = property(lambda self: [sign * self.lam[alpha] for sign, alpha in zip(_L_SIGN, _TRIPLE)])
    ledger_max = property(lambda self: max(map(abs, self.table("ledger"))))

    def evaluation(self) -> tuple[float, float, float, bool]:
        """A solution record's ||L|| at the point's scale, max|D_alpha|, larger eta_alpha and round-point verdict at
        DEFAULT_TOL, formed on each read; raises where a D_alpha is not finite, or where a partial x_k
        dD_alpha/dx_k overflows (eta_alpha is NaN there).  Its repr is the same under each sign flip of t, u, v or w,
        not under v <-> w, so a +-u pair reads the one geometry at (t, |u|, v, w) (:func:`zksym.analysis._evaluate`)."""
        if not all(map(math.isfinite, self.det)):
            raise DegenerateMetricError(f"the Ledger determinants are not finite: {self.det}")
        if any(map(math.isnan, self.eta)):
            raise DegenerateMetricError(f"the partials of the Ledger determinants overflow: D = {self.det}")
        return (_ldexp(self.norm_ledger, -3 * self.e), max(map(abs, self.det)), max(self.eta),
                self.equal("1234", DEFAULT_TOL))

    @property
    def reduced_system(self) -> tuple[float, float, float, float]:
        """The four reduced Ledger equations of :func:`zksym.analysis.ledger_system_residuals`, formed from D_alpha
        at the unit scale and scaled as t^0, t^-1, t^-2, t^0 after; raises where one overflows."""
        e, (x1, x2, x3, x4), (d1, d2), p = self.e, self.y, self.det, self.params
        t, v, w = (math.ldexp(a, -e) for a in (p.t, p.v, p.w))
        star = [-(d1 + d2) / 2, -(d1 - d2) / (2 * t),
                math.copysign(1.0, t) * (x2 * d1 - x1 * d2) / (2 * v * w * math.sqrt(x1 * x2)),
                -(x2 * d1 + x1 * d2) / (2 * t * t)]
        star = [_ldexp(x, n) + 0.0 for x, n in zip(star, (0, -e, -2 * e, 0))]  # and no -0.0
        if not all(map(math.isfinite, star)):  # overflow shows up as a non-finite residual
            raise DegenerateMetricError(f"reduced Ledger system residuals are not finite: {star}")
        return tuple(star)

    @property
    def u_max(self) -> tuple[float, tuple[int, int, int]]:
        """max |U| over the adapted frame triples and the first (i, j, k), in C order, that attains it."""
        table = list(map(abs, self.table("u")))
        i, jk = divmod(_SUPPORT[table.index(max(table))] if any(table) else 0, 64)  # (0, 0, 0) where all are 0
        return max(table), (i, *divmod(jk, 8))

    def equal(self, modules: str, tol: float) -> bool:
        """Whether the x_k of ``modules`` (1234, 34, 124 or 123: A1, A2, B, C) are equal to a relative tol, eps_J =
        (max - min) / (max + min) <= tol: the least relative move of each x_k that makes them equal.  Each y_k is
        x_k to about 2^-52 relative, hi - lo rounds once and tol (hi + lo) twice (finite: where x3 + x4 overflows,
        so does D_alpha), so this is the exact verdict wherever |eps_J - tol| > (2 + 5 tol) 2^-53, tol hi normal."""
        x = _SETS[modules](self.y)
        lo, hi = min(x), max(x)
        return hi - lo <= tol * (hi + lo)

    def isometries(self, tol: float) -> list[list[float]]:
        """The kernel of U's rows, a sum of modules: A~1..A~4 where x3 = x4, the root vectors of B where
        x1 = x2 = x4 and those of C where x1 = x2 = x3, each to a relative tol (:meth:`equal`)."""
        kept = [self.equal("34", tol)] * 4 + [self.equal("124", tol)] * 2 + [self.equal("123", tol)] * 2
        # in the adapted frame A~1..A~4 are units, the root vectors of B are sgn v B~i and those of C sgn w C~i
        signs = [1.0] * 4 + [math.copysign(1.0, self.params.v)] * 2 + [math.copysign(1.0, self.params.w)] * 2
        return [[sign if i == a else 0.0 for i in range(8)] for a, (sign, keep) in enumerate(zip(signs, kept)) if keep]

    @property
    def _cos_sin(self) -> tuple[float, float]:
        """c = sqrt(x1 / 2t^2) and s = sqrt(x2 / 2t^2)."""
        y1, y2 = self.y[:2]
        return math.sqrt(y1 / (y1 + y2)), math.sqrt(y2 / (y1 + y2))

    def table(self, name: str) -> tuple[float, ...]:
        """The support values ``name`` presented in the adapted frame, on the slots _SUPPORT.  Q turns each A pair
        (a, a ^ 2) through c, s and signs B, C by sgn v, sgn w: a slot is sgn v sgn w (q x_i + q' x_j), each product
        rounded once, as Q's rows summed in any order would give, and + 0.0 leaves no -0.0."""
        x, (c, s), p = getattr(self, name), self._cos_sin, self.params
        ct, st, sign = math.copysign(c, p.t), math.copysign(s, p.t), math.copysign(1.0, p.v * p.w)
        q, q2 = (ct, ct, -s, s), (st, st, c, -c)  # Q[a, b] and Q[a ^ 2, b] for the adapted A column b
        return tuple((x[i] * q[b] + x[j] * q2[b]) * sign + 0.0 for i, j, b in _PAIRS)

    @property
    def ricci(self) -> tuple[tuple[float, ...], ...]:
        """Q^T diag(r) Q entry by entry, its 8 rows: r1 = r2 (u = 0) leaves rho(A~1, A~4) = 0 exactly."""
        (c, s), (r1, r2, r3, r4) = self._cos_sin, self.r
        rho = [0.0] * 64
        rho[::18] = rho[9::18] = [c * c * r1 + s * s * r2, s * s * r1 + c * c * r2, r3, r4]  # the diagonal
        off = math.copysign(1.0, self.params.t) * c * s * (r1 - r2)
        rho[3] = rho[24] = off + 0.0  # (A~1, A~4) and (A~4, A~1), with no -0.0
        rho[10] = rho[17] = -off + 0.0  # (A~2, A~3) and (A~3, A~2)
        return tuple(tuple(rho[i:i + 8]) for i in range(0, 64, 8))


_cached_geometry = lru_cache(maxsize=256)(_Geometry)  # a point that the guard or the program refuses leaves no entry


def _geometry(form: AdaptedForm) -> _Geometry:
    _arrays()
    if form.params is not None:
        return _cached_geometry(form.params)
    g = form.gram
    if not np.isfinite(g).all():
        raise DegenerateMetricError("Gram matrix is not finite")
    if not g.diagonal().min() > 0.0:
        raise DegenerateMetricError(f"Gram matrix is not positive-definite: its diagonal has {g.diagonal().min():.3g}")
    # the ad(h)-invariant forms, for which alone the invariant-connection formulas hold, are exactly the adapted ones
    defect = np.abs(g - _gram(g[0, 0], g[3, 0], g[4, 4], g[6, 6]))
    if (worst := float(defect.max())) > DEFAULT_TOL * float(np.max(np.abs(g))):
        i, j = ("A1 A2 A3 A4 B1 B2 C1 C2".split()[k] for k in divmod(int(defect.argmax()), 8))
        raise InvalidParamsError(f"Gram matrix is not adapted: g[{i}, {j}] is {worst:.3g} off its adapted value")
    try:  # the positive-definite guard, x1, x2 > 0, of the invariant g = P diag(x) P^T: g00 = t^2, g30 = u/2
        p = MetricParams(math.sqrt(g[0, 0]), 2.0 * float(g[3, 0]), math.sqrt(g[4, 4]), math.sqrt(g[6, 6]))
    except InvalidParamsError as exc:  # only u = 2 g30 can fail: it overflows, or it lies past |u| = 2 g00
        if math.isinf(2.0 * float(g[3, 0])):
            raise DegenerateMetricError(f"u = 2 g30 = 2 * {g[3, 0]:.3g} overflows") from exc
        raise DegenerateMetricError(f"Gram matrix too close to the degenerate boundary: {exc}") from exc
    return _cached_geometry(p)


def _operator(form: AdaptedForm, name: str):
    """The root-frame tensor ``name`` (u, n or ledger) of the form's point on raw vectors, its first indices each,
    which enter the root frame by E^-1 = diag(sqrt x) P^T; a vector result (u, n) leaves it by E = P diag(x)^(-1/2),
    column i root frame vector i.  Each frame is formed once, for all the applications of one call."""
    geo = _geometry(form)
    tensor, coframe = _dense(getattr(geo, name)), np.ldexp(np.sqrt(geo.y), geo.e)[_MODULE, None] * _P.T
    frame = None if name == "ledger" else _P * np.ldexp(1.0 / np.sqrt(geo.y), -geo.e)[_MODULE]

    def apply(*vectors):
        out = tensor
        for x in vectors:
            out = np.tensordot(coframe @ _m_vector(x), out, (0, 0))
        return out if frame is None else frame @ out
    return apply


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def m_bracket(x, y) -> np.ndarray:
    """m-projection of the bracket of two raw m-vectors."""
    _arrays()
    return np.einsum("i,j,ijk->k", _m_vector(x), _m_vector(y), _CM)


def u_map(x, y, form: AdaptedForm) -> np.ndarray:
    """Symmetric bilinear map U(x, y).

    The unique solution of 2B(U(x,y),Z) = B(x,[Z,y]_m) + B([Z,x]_m,y) over
    all Z in m, for the positive-definite Gram matrix of ``form``.  Inputs
    and output are raw m-coordinates.
    """
    return _operator(form, "u")(x, y)


def nabla(x, y, form: AdaptedForm) -> np.ndarray:
    """Connection operator nabla_x y = U(x,y) + [x,y]_m / 2 (raw m-coordinates)."""
    return _operator(form, "n")(x, y)


def curvature(x, y, z, form: AdaptedForm) -> np.ndarray:
    """Curvature R(x, y) z at the origin (raw m-coordinates).

    Antisymmetric in (x, y) and skew-adjoint with respect to the form,
    which must be positive-definite and ad(h)-invariant.
    """
    n = _operator(form, "n")
    h = np.einsum("i,j,ija->a", _m_vector(x), _m_vector(y), _CH)  # [x, y]_h, acting by _ADH
    return n(x, n(y, z)) - n(y, n(x, z)) - n(m_bracket(x, y), z) - np.einsum("a,alk,k->l", h, _ADH, z)


def ricci(form: AdaptedForm) -> np.ndarray:
    """Ricci matrix in the adapted orthonormal frame (8x8 symmetric).

    rho_ij = rho(E_i, E_j), where rho(X, Y) is the trace of V -> R(V, X) Y,
    so rho_ij = sum_k <R(E_k, E_i) E_j, E_k>.  The frame is that of
    :func:`orthonormal_frame` for the form's parameters; a bare Gram
    matrix is read as its parameters (|t|, u, |v|, |w|).
    """
    geo = _geometry(form)  # binds np on a first call
    return np.array(geo.ricci)


def ledger(x, y, z, form: AdaptedForm) -> float:
    """First Ledger form L(x, y, z); cyclic by construction, fully symmetric.

    Inputs are raw m-coordinates; the form may be any positive-definite,
    ad(h)-invariant Gram matrix, with or without parameters.
    """
    return float(_operator(form, "ledger")(x, y, z))


def bracket_table(p: MetricParams) -> np.ndarray:
    """Projected brackets on frame pairs: table[i, j, :] = [E_i, E_j]_m in frame coordinates."""
    return _dense(_cached_geometry(p).table("c"), _SUPPORT)


def u_table(p: MetricParams) -> np.ndarray:
    """U on frame pairs, frame coordinates; symmetric in the first two indices."""
    return _dense(_cached_geometry(p).table("u"), _SUPPORT)


def nomizu_table(p: MetricParams) -> np.ndarray:
    """Connection coefficients on frame pairs: table[i, j, :] = nabla_{E_i} E_j."""
    return _dense(_cached_geometry(p).table("n"), _SUPPORT)


def ledger_table(p: MetricParams) -> np.ndarray:
    """First Ledger form on all frame triples (8x8x8, fully symmetric)."""
    return _dense(_cached_geometry(p).table("ledger"), _SUPPORT)
