"""Riemannian package of the flag manifold at the origin.

Everything is computed in one basis: an orthonormal frame E_1..E_8 of
m = span{A1..A4, B1, B2, C1, C2} for the adapted form B.  In it B is the
identity, so the metric enters only through the frame's structure
constants C[i, j, :] = [E_i, E_j]_m; every tensor is a contraction of C,
a function of the frame and its inverse alone.  The frame is the cached
:func:`orthonormal_frame` of the parameters, guarded by the exact K test
(the Gram's eigenvalues are t^2 +- |u|/2, v^2, w^2).  A bare Gram g must
be positive-definite, g = L L^T, and ad(h)-invariant; it is then the form
of (|t|, u, |v|, |w|) = (L00, 2 g30, L44, L66), whose frame is inv(L)^T.

* the symmetric map U defined by 2B(U(X,Y),Z) = B(X,[Z,Y]_m) + B([Z,X]_m,Y),
  that is U[i, j, k] = (C[k, j, i] + C[k, i, j]) / 2,
* the invariant connection operator  nabla_X Y = U(X,Y) + [X,Y]_m / 2,
* the curvature
  R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]_m} Z - [[X,Y]_h, Z],
  where nabla acts as the algebraic connection operator on m and the last
  term is the isotropy action of the h-part of [X,Y],
* the Ricci form rho(X,Y) = trace of V -> R(V,X)Y, by Besse's formula
  (Einstein Manifolds, 1987, Cor. 7.38) from C and the Killing form B alone:
  rho_ab = 1/4 sum_ij C[i,j,a] C[i,j,b] - 1/2 sum_jk C[a,j,k] C[b,j,k] - 1/2 B(E_a, E_b),
  whose term in sum_i U(E_i, E_i) vanishes as so(5) is unimodular,
* the first Ledger form
  L(X,Y,Z) = (nabla_X rho)(Y,Z) + (nabla_Y rho)(Z,X) + (nabla_Z rho)(X,Y)
           = -2 [rho(U(X,Y),Z) + rho(U(Y,Z),X) + rho(U(Z,X),Y)],
  as rho is constant in the invariant frame and the bracket halves of
  nabla cancel in the cyclic sum; so U = 0 (naturally reductive) gives L = 0.

Under the homothety (t, u, v, w) -> (l t, l^2 u, l v, l w), C, U and nabla
scale as 1/l, rho as 1/l^2 and L as 1/l^3.  So a verdict compares like
scales, never a tensor with tol alone: max|U| <= tol * max|C| for natural
reductivity, max|L| <= tol * max|nabla| * max|rho| for the first Ledger
condition (judged at the homothetic metric with |t| = 1 where the bound
underflows; an overflowing bound is an error).

The tensors of N points are built in one pass (:func:`stacked_geometry`):
(N, 8, 8, 8) for C, U, nabla and L, (N, 8, 8) for rho and (N,) for their
maxima per point; no reduction runs across points.  A query is the stack
N = 1, cached by its parameters.

Vectors passed to the query functions are 8-dimensional raw m-coordinates
(basis order A1..C2): an input x enters the frame as f^-1 x and a vector
result y leaves it as f y.  Tables, (8, 8, 8), and the Ricci matrix,
(8, 8), are returned in the frame, the only basis in which their
coefficients have canonical closed forms.
"""

from __future__ import annotations

from functools import lru_cache, cached_property

import numpy as np

from .algebra import DEFAULT_TOL
from .metric import (
    AdaptedForm,
    DegenerateMetricError,
    InvalidParamsError,
    MetricParams,
    check_adh_invariance,
    orthonormal_frame,
)
from .so5 import build_so5

# CM[i, j, k], CH[i, j, a], ADH[a, l, k]: see GradedLieAlgebra.m_structure
_CM, _CH, _ADH = build_so5().m_structure()

# Killing form B(X, Y) = trace(ad X ad Y) of so(5) on m in the raw basis; metric-free (it is -6 I)
_AD_M = build_so5().structure[list(build_so5().m_indices)]  # _AD_M[a, p, q]: component q of [m_a, e_p]
_KILLING_M = np.einsum("apq,bqp->ab", _AD_M, _AD_M)
_KILLING_M.setflags(write=False)


def m_bracket(x, y) -> np.ndarray:
    """m-projection of the bracket of two raw m-vectors."""
    x = _as_m_vector(x)
    y = _as_m_vector(y)
    return np.einsum("i,j,ijk->k", x, y, _CM)


def _as_m_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (8,):
        raise ValueError(f"m-vector must have shape (8,), got {x.shape}")
    return x


class _Geometry:
    """The connection, Ricci and Ledger tensors of the forms that the frames f make orthonormal, in f.

    ``frame[n]`` holds the frame vectors of point n of the stack as columns
    in raw m-coordinates; every tensor carries n as its first index.
    Instances are read-only after construction.
    """

    def __init__(self, f: np.ndarray, finv: np.ndarray):
        self.frame, self.frame_inv = f, finv
        ft = f.transpose(0, 2, 1)

        with np.errstate(all="ignore"):  # overflow shows up as a non-finite tensor below
            # c[n, i, j, k] = f[n, a, i] f[n, b, j] _CM[a, b, l] finv[n, k, l], one index at a time
            c = _CM @ finv.transpose(0, 2, 1)[:, None]
            c = ft[:, None] @ (ft @ c.reshape(-1, 8, 64)).reshape(-1, 8, 8, 8)
            u = 0.5 * (c.transpose(0, 3, 2, 1) + c.transpose(0, 2, 3, 1))
            n = u + 0.5 * c
            rho = (  # Besse's formula (module docstring); einsum sums in index order at any N, as BLAS need not
                0.25 * np.einsum("nija,nijb->nab", c, c)
                - 0.5 * np.einsum("najk,nbjk->nab", c, c)
                - 0.5 * (ft @ _KILLING_M @ f)
            )
            rho = 0.5 * (rho + rho.transpose(0, 2, 1))  # symmetrize away roundoff
            e = (u.reshape(-1, 64, 8) @ rho).reshape(-1, 8, 8, 8)  # e[n, i, j, k] = rho(U(E_i, E_j), E_k)
            lgr = -2.0 * (e + e.transpose(0, 2, 3, 1) + e.transpose(0, 3, 1, 2))
        maxima = tuple(np.abs(a).max(axis=tuple(range(1, a.ndim))) for a in (c, u, n, rho, lgr))  # max keeps NaN
        if not np.isfinite(maxima).all():
            raise DegenerateMetricError("the curvature tensors overflow at this scale")
        for arr in (c, u, n, rho, lgr) + maxima:
            arr.setflags(write=False)
        self.cm, self.u, self.n, self.rho, self.ledger = c, u, n, rho, lgr
        self.max_cm, self.max_u, self.max_n, self.max_rho, self.max_ledger = maxima

    @cached_property
    def r4(self) -> np.ndarray:
        """Curvature on frame triples: r4[n, i, j, :, k] = R(E_i, E_j) E_k.

        Only :func:`curvature` needs the full tensor.
        """
        f, finv, nop = self.frame[:, None], self.frame_inv[:, None], self.n.transpose(0, 1, 3, 2)
        ch = (f.transpose(0, 1, 3, 2) @ _CH.transpose(2, 0, 1) @ f).transpose(0, 2, 3, 1)
        adh = finv @ _ADH @ f
        comp = np.einsum("nilm,njmk->nijlk", nop, nop)
        r4 = (
            comp
            - comp.transpose(0, 2, 1, 3, 4)
            - np.einsum("nijm,nmlk->nijlk", self.cm, nop)
            - np.einsum("nija,nalk->nijlk", ch, adh)
        )
        r4.setflags(write=False)
        return r4

    def to_frame(self, x) -> np.ndarray:
        return self.frame_inv[0] @ _as_m_vector(x)


_rows: dict = {}  # rows of a stacked geometry, handed to the cache of one-point geometries below


def _stack(points) -> _Geometry:
    f = np.array([orthonormal_frame(p).matrix for p in points])  # each guarded by its K
    return _Geometry(f, np.linalg.inv(f))


@lru_cache(maxsize=256)
def _cached_geometry(p: MetricParams) -> _Geometry:
    return _rows.pop(p) if p in _rows else _stack([p])


def stacked_geometry(points) -> _Geometry:
    """The geometry of the parameter points in one stacked pass, N = len(points); each row is cached."""
    geo = _stack(points)
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
    except InvalidParamsError as exc:  # only u = 2 g30 can leave the floats
        raise DegenerateMetricError(f"u = 2 g30 = 2 * {form.gram[3, 0]:.3g} overflows") from exc
    return _cached_geometry(p)


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def u_map(x, y, form: AdaptedForm) -> np.ndarray:
    """Symmetric bilinear map U(x, y).

    The unique solution of 2B(U(x,y),Z) = B(x,[Z,y]_m) + B([Z,x]_m,y) over
    all Z in m, for the positive-definite Gram matrix of ``form``.  Inputs
    and output are raw m-coordinates.
    """
    geo = _geometry(form)
    return geo.frame[0] @ np.einsum("ijk,i,j->k", geo.u[0], geo.to_frame(x), geo.to_frame(y))


def nabla(x, y, form: AdaptedForm) -> np.ndarray:
    """Connection operator nabla_x y = U(x,y) + [x,y]_m / 2 (raw m-coordinates)."""
    geo = _geometry(form)
    return geo.frame[0] @ np.einsum("ijk,i,j->k", geo.n[0], geo.to_frame(x), geo.to_frame(y))


def curvature(x, y, z, form: AdaptedForm) -> np.ndarray:
    """Curvature R(x, y) z at the origin (raw m-coordinates).

    Antisymmetric in (x, y) and skew-adjoint with respect to the form,
    which must be positive-definite and ad(h)-invariant.
    """
    geo = _geometry(form)
    xf, yf, zf = geo.to_frame(x), geo.to_frame(y), geo.to_frame(z)
    return geo.frame[0] @ np.einsum("ijlk,i,j,k->l", geo.r4[0], xf, yf, zf)


def ricci(form: AdaptedForm) -> np.ndarray:
    """Ricci matrix in the orthonormal frame (8x8 symmetric).

    rho_ij = rho(E_i, E_j), where rho(X, Y) is the trace of V -> R(V, X) Y,
    so rho_ij = sum_k <R(E_k, E_i) E_j, E_k>.  The frame is that of
    :func:`orthonormal_frame` for the form's parameters; a bare Gram
    matrix is read as its parameters (|t|, u, |v|, |w|).
    """
    return _geometry(form).rho[0]


def ledger(x, y, z, form: AdaptedForm) -> float:
    """First Ledger form L(x, y, z); cyclic by construction, fully symmetric.

    Inputs are raw m-coordinates; the form may be any positive-definite,
    ad(h)-invariant Gram matrix, with or without parameters.
    """
    geo = _geometry(form)
    return float(np.einsum("ijk,i,j,k->", geo.ledger[0], geo.to_frame(x), geo.to_frame(y), geo.to_frame(z)))


def bracket_table(p: MetricParams) -> np.ndarray:
    """Projected brackets on frame pairs: table[i, j, :] = [E_i, E_j]_m in frame coordinates."""
    return _cached_geometry(p).cm[0]


def u_table(p: MetricParams) -> np.ndarray:
    """U on frame pairs, frame coordinates; symmetric in the first two indices."""
    return _cached_geometry(p).u[0]


def nomizu_table(p: MetricParams) -> np.ndarray:
    """Connection coefficients on frame pairs: table[i, j, :] = nabla_{E_i} E_j."""
    return _cached_geometry(p).n[0]


def ledger_table(p: MetricParams) -> np.ndarray:
    """First Ledger form on all frame triples (8x8x8, fully symmetric)."""
    return _cached_geometry(p).ledger[0]
