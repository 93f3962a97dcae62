"""Riemannian package of the flag manifold at the origin, computed in the root-space frame.

The torus of h splits m into four inequivalent root spaces, the column
pairs of a fixed orthogonal basis P, so every adapted form is diag(x) in P,
x = (t^2 + u/2, t^2 - u/2, v^2, w^2), and E = P diag(x)^(-1/2) is
orthonormal.  The structure constants c0 of m in P have 48 nonzeros, on two
module triples, and every tensor lives on them: C = c0 sqrt(x_k) /
(sqrt(x_i) sqrt(x_j)), U[i, j, k] = (C[k, j, i] + C[k, i, j]) / 2,
nabla = U + C/2, rho = diag(r) (Besse's formula, Einstein Manifolds, Cor.
7.38, summed per triple as by Wang and Ziller) and L = -2 sum_cyc
rho(U(X,Y), Z) = -c0 D_alpha / sqrt(x_alpha x3 x4) on the triple of alpha =
1, 2, where D_alpha = (x3 - x_alpha) r4 + (x4 - x3) r_alpha + (x_alpha - x4) r3
is zero iff (x_alpha, r_alpha), (x3, r3), (x4, r4) are collinear.  A point
is computed at its homothetic metric with 1 <= |t| < 2 (an exact scaling),
on the x / 4^e that :attr:`zksym.metric.MetricParams.unit_scalars` forms
from the exact t^2, with each x_k - x_j formed before a quotient, so nothing
loses digits near the K guard.  Verdicts use frame-free quantities:
Frobenius norms and each D_alpha against the sizes of its terms.

The adapted frame of :func:`zksym.metric.orthonormal_frame` is for
presentation only: A~1 = sgn t (c E1 + s E3), A~2 = sgn t (c E2 + s E4),
A~3 = c E4 - s E2, A~4 = s E1 - c E3, B~i = sgn v E_{4+i}, C~i = sgn w E_{6+i}
with c, s = sqrt(x1, x2 / 2t^2).  Tables (8, 8, 8) and the Ricci matrix
(8, 8) are returned in it, built for a point on first use.  Raw
m-vectors (basis A1..C2) enter the root frame by the coframe diag(sqrt x) P^T.
"""

from __future__ import annotations

from functools import lru_cache, cached_property

import numpy as np

from .algebra import DEFAULT_TOL
from .metric import AdaptedForm, DegenerateMetricError, InvalidParamsError, MetricParams, check_adh_invariance
from .so5 import build_so5

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
_HALF_KILLING = -0.5 * np.diag(_P.T @ _KILLING_M @ _P)[::2]


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

# A point has six columns (slot, alpha), slot-major, the modules (k, i, j) of a triple: (alpha, e1, e2),
# (e1, alpha, e2), (e2, alpha, e1).  Its ratios are sqrt(x_k) / (sqrt(x_i) sqrt(x_j)), the sizes of C.
_KIJ = np.array([0, 1, 2, 2, 3, 3, 2, 2, 0, 1, 0, 1, 3, 3, 3, 3, 2, 2])  # the modules k, then i, then j
_K_OF_MODULE = np.array([0, 1, 2, 4])  # a column whose k is module 0, 1, 2, 3
_SWAP = np.array([2, 3, 0, 1, 0, 1])  # the column whose k is this column's i
_NEXT = np.array([2, 3, 4, 5, 0, 1])  # the next slot of the same triple
_TO_MODULES = 0.5 * np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1]])
_TRIPLES_OF_MODULES = 0.5 * np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]])
# the terms (x3 - x_alpha) r4, (x4 - x3) r_alpha, (x_alpha - x4) r3 of D_alpha: x first and second, and r
_DX, _DR = np.array([2, 2, 3, 3, 0, 1, 0, 1, 2, 2, 3, 3]), np.array([3, 3, 0, 1, 2, 2])
_POWERS = np.repeat([-1, -2, -3], [6, 4, 2])  # homothety weights of the ratios, r and lam
_NORM_WEIGHTS = np.array([4.0, 1.0, 1.0, 2.0, 12.0])
# the rotation Q[a, i] to the adapted frame: c _QC + s _QS + _QB, column i times sgn t, t, 1, 1, sgn v, v, w, w
_QC, _QS, _QB = np.zeros((3, 8, 8))
_QC[[0, 1, 3, 2], [0, 1, 2, 3]] = [1, 1, 1, -1]
_QS[[2, 3, 1, 0], [0, 1, 2, 3]] = [1, 1, -1, 1]
_QB[4:, 4:] = np.eye(4)


def _triples(a: np.ndarray) -> np.ndarray:
    """The sum over the three slots of each triple, (N, 6) -> (N, 2); three terms add in order at any N."""
    return a.reshape(-1, 3, 2).sum(axis=1)


def _dense(values: np.ndarray) -> np.ndarray:
    """(N, 8, 8, 8) root-frame tensors from their values on the support."""
    out = np.zeros((len(values), 8, 8, 8))
    out[(slice(None),) + _INDEX] = values
    return out


class _Geometry:
    """The geometry of the parameter points in the root frame, row n of every array for points[n].

    Computed at once, what the solve path reads: ``vals`` (the six ratios,
    the sizes of C; r, rho per module; lam = D_alpha / sqrt(x_alpha x3 x4)),
    ``det`` (D_alpha) with ``det_scale`` and ``det_bound`` (the sizes of its
    three terms and of all its terms in x), and the Frobenius ``norms`` of
    C, U, nabla, rho and L at the scale x / 4^e.  The support values are
    computed when asked for; the presented tables, the frames and q are kept.
    """

    def __init__(self, points):
        for p in points:
            p.K  # the guard of each point
        self.params = np.array([(p.t, p.u, p.v, p.w) for p in points])
        self.e, self.y = e, y = [np.array(a) for a in zip(*(p.unit_scalars for p in points))]
        unit = np.empty((len(points), 12))  # the ratios, r and lam at the unit scale
        ratios, r, lam = unit[:, :6], unit[:, 6:10], unit[:, 10:]
        with np.errstate(all="ignore"):  # overflow shows up as a non-finite tensor below
            kij = y.take(_KIJ, axis=1)
            yk, yi, yj = kij[:, :6], kij[:, 6:12], kij[:, 12:]
            sq = yk / yi
            sq /= yj
            np.sqrt(sq, out=ratios)
            # per triple (x_k^2 - x_i^2 - x_j^2) / (x_i x_j x_k), with x_k^2 - x_j^2 exact where x_k = x_j;
            # the sizes of its terms sum to the ratios' squares, sigma
            inv = 1.0 / kij
            twice = (yk - yj) * (inv[:, :6] + inv[:, 12:]) / yi - sq.take(_SWAP, axis=1)
            np.multiply(_HALF_KILLING, inv.take(_K_OF_MODULE, axis=1), out=r)
            sigma = _triples(sq)
            sizes = r + sigma @ _TRIPLES_OF_MODULES
            r += twice @ _TO_MODULES
            # D_alpha's terms, their sizes, those of all its terms in x; L over -c0, which has the ratios'
            # differences where D_alpha has those of x (rounded like the terms, which is all the verdicts need:
            # ``ledger`` has the digits lost where they cancel); and ||U||^2, per triple
            rd = r.take(_DR, axis=1)
            x = y.take(_DX, axis=1)
            diff = ratios - ratios.take(_NEXT, axis=1)  # per triple a - b, b - c, c - a
            slots = np.empty((len(points), 5, 6))
            np.multiply(x[:, :6] - x[:, 6:], rd, out=slots[:, 0])
            np.abs(slots[:, 0], out=slots[:, 1])
            np.multiply(x[:, :6] + x[:, 6:], sizes.take(_DR, axis=1), out=slots[:, 2])
            np.multiply(diff, rd, out=slots[:, 3])
            np.multiply(diff, diff, out=slots[:, 4])
            sums = slots.reshape(-1, 5, 3, 2).sum(axis=2)  # three terms add in order at any N
            self.det, self.det_scale, self.det_bound = sums[:, 0], sums[:, 1], sums[:, 2]
            np.negative(sums[:, 3], out=lam)
            # ||C||^2 / 4 = sigma and ||nabla||^2 = ||U||^2 + ||C||^2 / 4, as U is symmetric and C antisymmetric
            rr = r * r
            squares = np.concatenate([sigma, sums[:, 4], sums[:, 4] + sigma, rr[:, :2] + rr[:, 2:], lam * lam], axis=1)
            self.norms = np.sqrt(squares.reshape(-1, 5, 2).sum(axis=2) * _NORM_WEIGHTS)
            self.vals = np.ldexp(unit, e[:, None] * _POWERS)
        if not np.isfinite(self.vals).all():
            raise DegenerateMetricError("the curvature tensors overflow at this scale")
        for a in vars(self).values():
            a.setflags(write=False)

    ratios, r, lam = (property(lambda self, s=s: self.vals[:, s]) for s in (slice(6), slice(6, 10), slice(10, 12)))
    norm_c, norm_u, norm_n, norm_rho, norm_ledger = (property(lambda self, i=i: self.norms[:, i]) for i in range(5))

    @property
    def c(self) -> np.ndarray:
        return _C0 * self.ratios[:, _RK]

    @property
    def u(self) -> np.ndarray:
        return _C0 * (0.5 * (self.ratios[:, _RJ] - self.ratios[:, _RI]))  # (C[k, j, i] + C[k, i, j]) / 2

    @property
    def n(self) -> np.ndarray:
        return self.u + 0.5 * self.c

    @cached_property
    def q(self) -> np.ndarray:
        """Q_alpha / (x1 x2 x3 x4) at the unit scale, (N, 2), with beta the other of 1, 2 and
        Q_alpha = x_alpha (x3 + x4 - x_alpha)^2 + 8 x_beta (x_alpha - x3)(x_alpha - x4) - x_alpha (x_alpha^2 - x_beta^2).
        D_alpha = (x4 - x3) q / 2, which keeps the digits its three terms lose where they cancel (u = 0, w = t).
        """
        ya, yb, y3, y4 = self.y[:, :2], self.y[:, 1::-1], self.y[:, 2:3], self.y[:, 3:]
        with np.errstate(all="ignore"):
            d3, d4 = ya - y3, ya - y4
            s = np.where(np.abs(d4) <= np.abs(d3), y3 - d4, y4 - d3)  # x3 + x4 - x_alpha, by the nearer difference
            return (s / y3) * (s / y4) / yb + 8.0 * (d3 / y3) * (d4 / y4) / ya - ((ya - yb) / y3) * ((ya + yb) / y4) / yb

    @property
    def ledger(self) -> np.ndarray:
        """L on the support, lam = D_alpha / sqrt(x_alpha x3 x4) by the Q-form of :attr:`q`."""
        y, g = self.y, np.sqrt(self.y)
        with np.errstate(all="ignore"):
            lam = 0.5 * ((y[:, 3:] - y[:, 2:3]) / g[:, 2:3] / g[:, 3:]) / g[:, :2] * self.q
            return _L_SIGN * np.ldexp(lam, -3 * self.e[:, None])[:, _TRIPLE]

    @cached_property
    def frame(self) -> np.ndarray:
        """E = P diag(x)^(-1/2): column i is root frame vector i in raw m-coordinates."""
        return _P * np.ldexp(1.0 / np.sqrt(self.y), -self.e[:, None]).take(_MODULE, axis=1)[:, None]

    @cached_property
    def coframe(self) -> np.ndarray:
        """E^-1 = diag(sqrt x) P^T."""
        return np.ldexp(np.sqrt(self.y), self.e[:, None])[:, _MODULE, None] * _P.T

    @property
    def _cos_sin(self) -> np.ndarray:
        """c = sqrt(x1 / 2t^2) and s = sqrt(x2 / 2t^2), (2, N)."""
        return np.sqrt(self.y[:, :2] / (self.y[:, 0] + self.y[:, 1])[:, None]).T

    @property
    def rotation(self) -> np.ndarray:
        """Q[n, a, i]: adapted frame vector i in the root frame."""
        c, s = self._cos_sin
        signs = np.sign(self.params).take([0, 0, 1, 1, 2, 2, 3, 3], axis=1)
        signs[:, 2:4] = 1.0
        return (c[:, None, None] * _QC + s[:, None, None] * _QS + _QB) * signs[:, None]

    def table(self, name: str) -> np.ndarray:
        """The support values ``name`` presented in the adapted frame, (N, 8, 8, 8), built once."""
        tables = vars(self).setdefault("_tables", {})
        if name not in tables:
            table, q = _dense(getattr(self, name)), self.rotation[:, None, None]
            for _ in range(3):  # contract the last index with Q and bring it to the front: k, then j, then i
                # products then sums, with no fused multiply-add, so that terms that cancel leave exact zeros
                table = (table[..., None] * q).sum(axis=-2).transpose(0, 3, 1, 2)
            table += 0.0  # and no -0.0
            table.setflags(write=False)
            tables[name] = table
        return tables[name]

    @cached_property
    def ricci(self) -> np.ndarray:
        """Q^T diag(r) Q entry by entry, so that r1 = r2 (u = 0) leaves rho(A~1, A~4) = 0 exactly."""
        (c, s), (r1, r2, r3, r4) = self._cos_sin, self.r.T
        rho = np.zeros((len(c), 8, 8))
        rho[:, range(8), range(8)] = np.column_stack([c * c * r1 + s * s * r2, s * s * r1 + c * c * r2, r3, r4])[:, _MODULE]
        rho[:, [0, 3, 1, 2], [3, 0, 2, 1]] = (np.sign(self.params[:, 0]) * c * s * (r1 - r2))[:, None] * [1, 1, -1, -1] + 0.0
        rho.setflags(write=False)
        return rho


_rows: dict = {}  # rows of a stacked geometry, handed to the cache of one-point geometries below


@lru_cache(maxsize=256)
def _cached_geometry(p: MetricParams) -> _Geometry:
    return _rows.pop(p) if p in _rows else _Geometry([p])


def stacked_geometry(points) -> _Geometry:
    """The geometry of the parameter points in one stacked pass, N = len(points); each row is cached."""
    geo = _Geometry(points)
    for i, p in enumerate(points):
        _rows[p] = row = object.__new__(_Geometry)  # point i as a stack of one, sharing geo's arrays
        vars(row).update((name, arr[i:i + 1]) for name, arr in vars(geo).items())
        _cached_geometry(p)  # takes the row, unless p is cached already
    _rows.clear()
    return geo


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
        tensor = np.tensordot(geo.coframe[0] @ _as_m_vector(x), tensor, (0, 0))
    return tensor if tensor.ndim == 0 else geo.frame[0] @ tensor


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
    return _apply(geo, _dense(geo.u)[0], x, y)


def nabla(x, y, form: AdaptedForm) -> np.ndarray:
    """Connection operator nabla_x y = U(x,y) + [x,y]_m / 2 (raw m-coordinates)."""
    geo = _geometry(form)
    return _apply(geo, _dense(geo.n)[0], x, y)


def curvature(x, y, z, form: AdaptedForm) -> np.ndarray:
    """Curvature R(x, y) z at the origin (raw m-coordinates).

    Antisymmetric in (x, y) and skew-adjoint with respect to the form,
    which must be positive-definite and ad(h)-invariant.
    """
    geo = _geometry(form)
    n = _dense(geo.n)[0]
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
    return _geometry(form).ricci[0]


def ledger(x, y, z, form: AdaptedForm) -> float:
    """First Ledger form L(x, y, z); cyclic by construction, fully symmetric.

    Inputs are raw m-coordinates; the form may be any positive-definite,
    ad(h)-invariant Gram matrix, with or without parameters.
    """
    geo = _geometry(form)
    return float(_apply(geo, _dense(geo.ledger)[0], x, y, z))


def bracket_table(p: MetricParams) -> np.ndarray:
    """Projected brackets on frame pairs: table[i, j, :] = [E_i, E_j]_m in frame coordinates."""
    return _cached_geometry(p).table("c")[0]


def u_table(p: MetricParams) -> np.ndarray:
    """U on frame pairs, frame coordinates; symmetric in the first two indices."""
    return _cached_geometry(p).table("u")[0]


def nomizu_table(p: MetricParams) -> np.ndarray:
    """Connection coefficients on frame pairs: table[i, j, :] = nabla_{E_i} E_j."""
    return _cached_geometry(p).table("n")[0]


def ledger_table(p: MetricParams) -> np.ndarray:
    """First Ledger form on all frame triples (8x8x8, fully symmetric)."""
    return _cached_geometry(p).table("ledger")[0]
