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
(x_alpha, r_alpha), (x3, r3), (x4, r4) are collinear.  So a point's
geometry is a few scalars: one program in Python floats, :func:`_program`,
forms them from the x / 4^e of :attr:`zksym.metric.MetricParams.unit_scalars`
(the exact homothety to 1 <= |t| < 2) with each x_k - x_j formed before a
quotient, so nothing loses digits near the K guard.  Verdicts use
frame-free quantities: Frobenius norms, each D_alpha against its terms.

The adapted frame of :func:`zksym.metric.orthonormal_frame` is for
presentation only: A~1 = sgn t (c E1 + s E3), A~2 = sgn t (c E2 + s E4),
A~3 = c E4 - s E2, A~4 = s E1 - c E3, B~i = sgn v E_{4+i}, C~i = sgn w E_{6+i}
with c, s = sqrt(x1, x2 / 2t^2).  The tables (8, 8, 8) and the Ricci matrix
(8, 8) in it are numpy arrays, built from the scalars on first use.  Raw
m-vectors (basis A1..C2) enter the root frame by the coframe diag(sqrt x) P^T.
"""

from __future__ import annotations

import math
from functools import lru_cache, cached_property

import numpy as np

from .algebra import DEFAULT_TOL
from .metric import AdaptedForm, DegenerateMetricError, InvalidParamsError, MetricParams, check_adh_invariance
from .so5 import build_so5

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

# CM[i, j, k], CH[i, j, a], ADH[a, l, k]: see GradedLieAlgebra.m_structure
_CM, _CH, _ADH = build_so5().m_structure()

# Killing form B(X, Y) = trace(ad X ad Y) of so(5) on m in the raw basis; metric-free (it is -6 I)
_AD_M = build_so5().structure[list(build_so5().m_indices)]  # _AD_M[a, p, q]: component q of [m_a, e_p]
_KILLING_M = np.einsum("apq,bqp->ab", _AD_M, _AD_M)
_KILLING_M.setflags(write=False)

# the root basis P: column i in raw coordinates, in the module _MODULE[i]
_P = np.eye(8)
_P[:4, :4] = np.sqrt(0.5) * np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, -1, 0, 1], [1, 0, -1, 0]])
_MODULE = np.repeat(np.arange(4), 2)
_HALF_KILLING = (-0.5 * np.diag(_P.T @ _KILLING_M @ _P)[::2]).tolist()


def _support():
    """The support of c0 = the structure constants of m in P, c0 on it, and the columns of its ratios and L."""
    c0 = np.tensordot(_P, np.tensordot(_P, _CM @ _P, (0, 1)), (0, 1))  # c0[i, j, k], as P^-1 = P^T
    c0 = np.where(np.abs(c0) > 0.5, np.copysign(np.sqrt(0.5), c0), 0.0)  # exactly +-1/sqrt 2 or 0
    entries = list(zip(*np.nonzero(c0)))
    i, j, k = np.array(entries).T
    triple = np.minimum(np.minimum(_MODULE[i], _MODULE[j]), _MODULE[k])  # alpha, the module 0 or 1
    column = 2 * np.maximum(_MODULE[[k, i, j]] - 1, 0) + triple  # the ratio of which index's module is k
    sign = [-c0[tuple(sorted(e))] for e in entries]  # L = -c0 D / sqrt(...) on the sorted triple (a, b, c)
    return (i, j, k), c0[i, j, k], column, np.array(sign), triple


_INDEX, _C0, (_RK, _RI, _RJ), _L_SIGN, _TRIPLE = _support()

# the rotation Q[a, i] to the adapted frame: c _QC + s _QS + _QB, column i times sgn t, t, 1, 1, sgn v, v, w, w
_QC, _QS, _QB = np.zeros((3, 8, 8))
_QC[[0, 1, 3, 2], [0, 1, 2, 3]] = [1, 1, 1, -1]
_QS[[2, 3, 1, 0], [0, 1, 2, 3]] = [1, 1, -1, 1]
_QB[4:, 4:] = np.eye(4)


def _program(e: int, y) -> list[float]:
    """From a point's unit-scale (e, y): the six ratios (the sizes of C), r and lam at its scale, then D_alpha,
    det_scale and det_bound (two each) and the norms of C, U, nabla, rho and L at the unit scale.  The triple of
    alpha has the slots (k, i, j) = (alpha, e1, e2), (e1, alpha, e2), (e2, alpha, e1), summed in that order."""
    if not 0.0 < min(y) <= max(y) < math.inf:  # an x that under- or overflows at this scale
        raise DegenerateMetricError("the curvature tensors overflow at this scale")
    x1, x2, x3, x4 = y
    k1, k2, k3, k4 = _HALF_KILLING
    i3, i4 = 1.0 / x3, 1.0 / x4
    r1, r2, r3, r4 = k1 * (1.0 / x1), k2 * (1.0 / x2), k3 * i3, k4 * i4
    triples = []
    for xa in (x1, x2):
        # the squared ratios of the slots and per slot (x_k^2 - x_i^2 - x_j^2) / (x_i x_j x_k), with
        # x_k^2 - x_j^2 exact where x_k = x_j; the sizes of its terms sum to the squared ratios, sigma
        s0, s1, s2 = xa / x3 / x4, x3 / xa / x4, x4 / xa / x3
        triples.append(((s0, s1, s2), s0 + s1 + s2, (xa - x4) * (1.0 / xa + i4) / x3 - s1,
                        (x3 - x4) * (i3 + i4) / xa - s0, (x4 - x3) * (i4 + i3) / xa - s0))
    (sq1, sigma1, a0, a1, a2), (sq2, sigma2, b0, b1, b2) = triples
    both = 0.5 * sigma1 + 0.5 * sigma2
    sizes = r1 + 0.5 * sigma1, r2 + 0.5 * sigma2, r3 + both, r4 + both
    r1, r2, r3, r4 = r1 + 0.5 * a0, r2 + 0.5 * b0, r3 + (0.5 * a1 + 0.5 * b1), r4 + (0.5 * a2 + 0.5 * b2)
    rows = []
    for xa, ra, size, (s0, s1, s2) in ((x1, r1, sizes[0], sq1), (x2, r2, sizes[1], sq2)):
        # D_alpha's terms, their sizes, those of all its terms in x; L over -c0, with the ratios' differences for
        # those of x (rounded like the terms, all the verdicts need: ``ledger`` keeps the digits); ||U||^2
        t0, t1, t2 = (x3 - xa) * r4, (x4 - x3) * ra, (xa - x4) * r3
        c0, c1, c2 = math.sqrt(s0), math.sqrt(s1), math.sqrt(s2)
        f0, f1, f2 = c0 - c1, c1 - c2, c2 - c0
        rows.append((c0, c1, c2, t0 + t1 + t2, abs(t0) + abs(t1) + abs(t2),
                     (x3 + xa) * sizes[3] + (x4 + x3) * size + (xa + x4) * sizes[2],
                     -(f0 * r4 + f1 * ra + f2 * r3), f0 * f0 + f1 * f1 + f2 * f2))
    (c0, c1, c2, d1, m1, b1, l1, u1), (c3, c4, c5, d2, m2, b2, l2, u2) = rows
    # ||C||^2 / 4 = sigma and ||nabla||^2 = ||U||^2 + ||C||^2 / 4, as U is symmetric and C antisymmetric
    norms = [math.sqrt((sigma1 + sigma2) * 4.0), math.sqrt(u1 + u2), math.sqrt((u1 + sigma1) + (u2 + sigma2)),
             math.sqrt((r1 * r1 + r3 * r3 + (r2 * r2 + r4 * r4)) * 2.0), math.sqrt((l1 * l1 + l2 * l2) * 12.0)]
    try:  # the ratios slot-major, r and lam, at the point's scale
        e2, e3, ldexp = 2 * e, 3 * e, math.ldexp
        scaled = [ldexp(c0, -e), ldexp(c3, -e), ldexp(c1, -e), ldexp(c4, -e), ldexp(c2, -e), ldexp(c5, -e),
                  ldexp(r1, -e2), ldexp(r2, -e2), ldexp(r3, -e2), ldexp(r4, -e2), ldexp(l1, -e3), ldexp(l2, -e3)]
    except OverflowError:
        scaled = [math.inf]
    if not all(map(math.isfinite, scaled)):
        raise DegenerateMetricError("the curvature tensors overflow at this scale")
    return scaled + [d1, d2, m1, m2, b1, b2] + norms


def _ldexp(x: float, n: int) -> float:
    """x 2^n, +-inf where that overflows, as np.ldexp (math.ldexp raises there)."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


def _dense(values) -> np.ndarray:
    """The (8, 8, 8) root-frame tensor of its values on the support."""
    out = np.zeros((8, 8, 8))
    out[_INDEX] = values
    return out


class _Geometry:
    """The geometry of one parameter point in the root frame: at once, its e and y and what :func:`_program`
    forms, in Python floats; the support values, the frames and q when asked for, the presented tables once."""

    def __init__(self, p: MetricParams):
        p.K  # the guard, which like an overflow in the program raises before anything is kept
        self.params = p
        self.e, self.y = p.unit_scalars
        values = _program(self.e, self.y)
        self.ratios, self.r, self.lam = values[:6], values[6:10], values[10:12]
        self.det, self.det_scale, self.det_bound = values[12:14], values[14:16], values[16:18]
        self.norm_c, self.norm_u, self.norm_n, self.norm_rho, self.norm_ledger = values[18:]

    c = property(lambda self: _C0 * np.take(self.ratios, _RK))
    # (C[k,j,i] + C[k,i,j]) / 2
    u = property(lambda self: _C0 * (0.5 * (np.take(self.ratios, _RJ) - np.take(self.ratios, _RI))))
    n = property(lambda self: self.u + 0.5 * self.c)

    @cached_property
    def q(self) -> list[float]:
        """Q_alpha / (x1 x2 x3 x4) at the unit scale, alpha = 1, 2, with beta the other of 1, 2 and
        Q_alpha = x_alpha (x3 + x4 - x_alpha)^2 + 8 x_beta (x_alpha - x3)(x_alpha - x4) - x_alpha (x_alpha^2 - x_beta^2).
        D_alpha = (x4 - x3) q / 2, which keeps the digits its three terms lose where they cancel (u = 0, w = t).
        """
        y1, y2, y3, y4 = self.y
        q = []
        for ya, yb in ((y1, y2), (y2, y1)):
            d3, d4 = ya - y3, ya - y4
            s = y3 - d4 if abs(d4) <= abs(d3) else y4 - d3  # x3 + x4 - x_alpha, by the nearer difference
            q.append((s / y3) * (s / y4) / yb + 8.0 * (d3 / y3) * (d4 / y4) / ya - ((ya - yb) / y3) * ((ya + yb) / y4) / yb)
        return q

    @cached_property
    def _ledger_lam(self) -> list[float]:
        """lam_alpha = D_alpha / sqrt(x_alpha x3 x4) at the point's scale by the Q-form of :attr:`q`."""
        y1, y2, y3, y4 = self.y
        h = 0.5 * ((y4 - y3) / math.sqrt(y3) / math.sqrt(y4))
        return [_ldexp(h / math.sqrt(ya) * qa, -3 * self.e) for ya, qa in zip((y1, y2), self.q)]

    @property
    def ledger(self) -> np.ndarray:
        """L on the support, +-lam_alpha on the triples of alpha."""
        return _L_SIGN * np.take(self._ledger_lam, _TRIPLE)

    @cached_property
    def ledger_max(self) -> float:
        """max |L| over the adapted frame triples, without the table: up to sign its entries are c l1 +- s l2
        and s l1 +- c l2, l_alpha = |lam_alpha| / sqrt 2 = |L| on the root triples of alpha, products then a sum
        as there; a difference first, so that a NaN wins as in np.max."""
        (c, s), (l1, l2) = self._cos_sin, (math.sqrt(0.5) * abs(lam) for lam in self._ledger_lam)
        return max(abs(c * l1 - s * l2), abs(c * l1 + s * l2), abs(s * l1 + c * l2), abs(s * l1 - c * l2))

    @cached_property
    def u_max(self) -> tuple[float, tuple[int, int, int]]:
        """max |U| over the adapted frame triples and the first (i, j, k), in np.argmax's order, that attains it."""
        table = np.abs(self.table("u"))
        index = np.unravel_index(int(np.argmax(table)), table.shape)
        return float(table[index]), tuple(map(int, index))

    @cached_property
    def u_svd(self) -> tuple[list[float], np.ndarray]:
        """The singular values (floats) and read-only vh of U's rows on frame pairs i <= j: row[x] = U[i, j, x]."""
        _, s, vh = np.linalg.svd(self.table("u")[np.triu_indices(8)])
        vh.setflags(write=False)
        return s.tolist(), vh

    @cached_property
    def frame(self) -> np.ndarray:
        """E = P diag(x)^(-1/2): column i is root frame vector i in raw m-coordinates."""
        return _P * np.ldexp(1.0 / np.sqrt(self.y), -self.e)[_MODULE]

    @cached_property
    def coframe(self) -> np.ndarray:
        """E^-1 = diag(sqrt x) P^T."""
        return np.ldexp(np.sqrt(self.y), self.e)[_MODULE, None] * _P.T

    @property
    def _cos_sin(self) -> tuple[float, float]:
        """c = sqrt(x1 / 2t^2) and s = sqrt(x2 / 2t^2)."""
        y1, y2 = self.y[:2]
        return math.sqrt(y1 / (y1 + y2)), math.sqrt(y2 / (y1 + y2))

    @property
    def rotation(self) -> np.ndarray:
        """Q[a, i]: adapted frame vector i in the root frame."""
        (c, s), p = self._cos_sin, self.params
        return (c * _QC + s * _QS + _QB) * np.sign([p.t, p.t, 1.0, 1.0, p.v, p.v, p.w, p.w])

    def table(self, name: str) -> np.ndarray:
        """The support values ``name`` presented in the adapted frame, (8, 8, 8), built once."""
        tables = vars(self).setdefault("_tables", {})
        if name not in tables:
            table, q = _dense(getattr(self, name)), self.rotation
            for _ in range(3):  # contract the last index with Q and bring it to the front: k, then j, then i
                # products then sums, with no fused multiply-add, so that terms that cancel leave exact zeros
                table = (table[..., None] * q).sum(axis=-2).transpose(2, 0, 1)
            table += 0.0  # and no -0.0
            table.setflags(write=False)
            tables[name] = table
        return tables[name]

    @cached_property
    def ricci(self) -> np.ndarray:
        """Q^T diag(r) Q entry by entry, so that r1 = r2 (u = 0) leaves rho(A~1, A~4) = 0 exactly."""
        (c, s), (r1, r2, r3, r4) = self._cos_sin, self.r
        rho = np.diag(np.take([c * c * r1 + s * s * r2, s * s * r1 + c * c * r2, r3, r4], _MODULE))
        off = math.copysign(1.0, self.params.t) * c * s * (r1 - r2)
        rho[[0, 3, 1, 2], [3, 0, 2, 1]] = np.multiply(off, [1, 1, -1, -1]) + 0.0
        rho.setflags(write=False)
        return rho


_cached_geometry = lru_cache(maxsize=256)(_Geometry)  # a point that the guard or the program refuses leaves no entry


def _geometry(form: AdaptedForm) -> _Geometry:
    if form.params is not None:
        return _cached_geometry(form.params)
    try:
        low = np.linalg.cholesky(form.gram)  # the positive-definite guard of a bare Gram matrix
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"Gram matrix is not positive-definite: {exc}") from exc
    if not np.isfinite(low).all():
        raise DegenerateMetricError("Gram matrix is not finite")
    # the invariant-connection formulas hold only for ad(h)-invariant forms
    report = check_adh_invariance(build_so5(), form)
    if not report.ok(DEFAULT_TOL * float(np.max(np.abs(form.gram)))):
        z, x, y = report.worst
        raise InvalidParamsError(
            f"Gram matrix is not ad(h)-invariant: B([{z},{x}],{y}) + B({x},[{z},{y}]) = {report.max_residual:.3g}"
        )
    try:
        p = MetricParams(low[0, 0], 2.0 * float(form.gram[3, 0]), low[4, 4], low[6, 6])
    except InvalidParamsError as exc:  # only u = 2 g30 can fail: it overflows, or it rounds past |u| = 2 L00^2
        if np.isinf(2.0 * float(form.gram[3, 0])):
            raise DegenerateMetricError(f"u = 2 g30 = 2 * {form.gram[3, 0]:.3g} overflows") from exc
        raise DegenerateMetricError(f"Gram matrix too close to the degenerate boundary: {exc}") from exc
    return _cached_geometry(p)


def _apply(geo: _Geometry, tensor: np.ndarray, *vectors):
    """A root-frame tensor of one point on raw vectors, its first indices each; a vector result in raw coordinates."""
    for x in vectors:
        tensor = np.tensordot(geo.coframe @ _as_m_vector(x), tensor, (0, 0))
    return tensor if tensor.ndim == 0 else geo.frame @ tensor


def _as_m_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (8,):
        raise ValueError(f"m-vector must have shape (8,), got {x.shape}")
    return x


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def m_bracket(x, y) -> np.ndarray:
    """m-projection of the bracket of two raw m-vectors."""
    return np.einsum("i,j,ijk->k", _as_m_vector(x), _as_m_vector(y), _CM)


def u_map(x, y, form: AdaptedForm) -> np.ndarray:
    """Symmetric bilinear map U(x, y).

    The unique solution of 2B(U(x,y),Z) = B(x,[Z,y]_m) + B([Z,x]_m,y) over
    all Z in m, for the positive-definite Gram matrix of ``form``.  Inputs
    and output are raw m-coordinates.
    """
    geo = _geometry(form)
    return _apply(geo, _dense(geo.u), x, y)


def nabla(x, y, form: AdaptedForm) -> np.ndarray:
    """Connection operator nabla_x y = U(x,y) + [x,y]_m / 2 (raw m-coordinates)."""
    geo = _geometry(form)
    return _apply(geo, _dense(geo.n), x, y)


def curvature(x, y, z, form: AdaptedForm) -> np.ndarray:
    """Curvature R(x, y) z at the origin (raw m-coordinates).

    Antisymmetric in (x, y) and skew-adjoint with respect to the form,
    which must be positive-definite and ad(h)-invariant.
    """
    geo = _geometry(form)
    n = _dense(geo.n)
    h = np.einsum("i,j,ija->a", _as_m_vector(x), _as_m_vector(y), _CH)  # [x, y]_h, which acts on z by _ADH
    return (_apply(geo, n, x, _apply(geo, n, y, z)) - _apply(geo, n, y, _apply(geo, n, x, z))
            - _apply(geo, n, m_bracket(x, y), z) - np.einsum("a,alk,k->l", h, _ADH, z))


def ricci(form: AdaptedForm) -> np.ndarray:
    """Ricci matrix in the adapted orthonormal frame (8x8 symmetric).

    rho_ij = rho(E_i, E_j), where rho(X, Y) is the trace of V -> R(V, X) Y,
    so rho_ij = sum_k <R(E_k, E_i) E_j, E_k>.  The frame is that of
    :func:`orthonormal_frame` for the form's parameters; a bare Gram
    matrix is read as its parameters (|t|, u, |v|, |w|).
    """
    return _geometry(form).ricci


def ledger(x, y, z, form: AdaptedForm) -> float:
    """First Ledger form L(x, y, z); cyclic by construction, fully symmetric.

    Inputs are raw m-coordinates; the form may be any positive-definite,
    ad(h)-invariant Gram matrix, with or without parameters.
    """
    geo = _geometry(form)
    return float(_apply(geo, _dense(geo.ledger), x, y, z))


def bracket_table(p: MetricParams) -> np.ndarray:
    """Projected brackets on frame pairs: table[i, j, :] = [E_i, E_j]_m in frame coordinates."""
    return _cached_geometry(p).table("c")


def u_table(p: MetricParams) -> np.ndarray:
    """U on frame pairs, frame coordinates; symmetric in the first two indices."""
    return _cached_geometry(p).table("u")


def nomizu_table(p: MetricParams) -> np.ndarray:
    """Connection coefficients on frame pairs: table[i, j, :] = nabla_{E_i} E_j."""
    return _cached_geometry(p).table("n")


def ledger_table(p: MetricParams) -> np.ndarray:
    """First Ledger form on all frame triples (8x8x8, fully symmetric)."""
    return _cached_geometry(p).table("ledger")
