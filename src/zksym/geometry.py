"""Riemannian package of the flag manifold at the origin.

Everything is computed algebraically on m = span{A1..A4, B1, B2, C1, C2}
from the structure constants of so(5) and an adapted form B:

* the symmetric map U defined by 2B(U(X,Y),Z) = B(X,[Z,Y]_m) + B([Z,X]_m,Y),
* the invariant connection operator  nabla_X Y = U(X,Y) + [X,Y]_m / 2,
* the curvature
  R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]_m} Z - [[X,Y]_h, Z],
  where nabla acts as the algebraic connection operator on m and the last
  term is the isotropy action of the h-part of [X,Y],
* the Ricci form rho(X,Y) = trace of V -> R(V,X)Y, a basis-free trace
  computed in the raw basis straight from the connection operators,
* the first Ledger form
  L(X,Y,Z) = (nabla_X rho)(Y,Z) + (nabla_Y rho)(Z,X) + (nabla_Z rho)(X,Y),
  with (nabla_X rho)(Y,Z) = -rho(nabla_X Y, Z) - rho(Y, nabla_X Z) because
  rho is invariant, hence constant in the invariant frame.

Vectors passed to the public functions are 8-dimensional raw m-coordinates
(basis order A1..C2).  The orthonormal frame is used only to present
results: tables and the Ricci matrix are returned in it, the only basis in
which their coefficients have canonical closed forms.
"""

from __future__ import annotations

from functools import lru_cache, cached_property

import numpy as np

from .metric import AdaptedForm, DegenerateMetricError, MetricParams, build_form, orthonormal_frame
from .so5 import H_INDICES, M_INDICES, build_so5


def _m_structure() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the so(5) structure constants along h + m.

    Returns (CM, CH, ADH) with
      CM[i, j, k]  m-component k of [m_i, m_j],
      CH[i, j, a]  h-component a of [m_i, m_j],
      ADH[a, l, k] m-component l of [h_a, m_k].
    """
    c = build_so5().structure
    mi, hi = list(M_INDICES), list(H_INDICES)
    cm = c[np.ix_(mi, mi, mi)].copy()
    ch = c[np.ix_(mi, mi, hi)].copy()
    adh = c[np.ix_(hi, mi, mi)].transpose(0, 2, 1).copy()
    for arr in (cm, ch, adh):
        arr.setflags(write=False)
    return cm, ch, adh


_CM, _CH, _ADH = _m_structure()

# Isotropy part of the Ricci trace, sum_l ([[e_l, e_i]_h, e_j])_l; it does
# not depend on the metric.
_RHO_H = np.einsum("lia,alj->ij", _CH, _ADH)
_RHO_H.setflags(write=False)


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
    """Per-form cache of the connection, curvature and Ricci tensors.

    Raw-basis tensors need only the Gram matrix; frame tensors additionally
    need the parameters behind the form.  Instances are read-only after
    construction.
    """

    def __init__(self, form: AdaptedForm):
        self.gram = form.gram
        self.params = form.params
        try:
            self._chol = np.linalg.cholesky(form.gram)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetricError(f"Gram matrix is not positive-definite: {exc}") from exc
        if not np.isfinite(self._chol).all():
            raise DegenerateMetricError("Gram matrix is not finite")

    # ---- raw-basis tensors ------------------------------------------------
    @cached_property
    def u3(self) -> np.ndarray:
        """U on basis pairs: u3[i, j, :] solves the defining linear system."""
        g = self.gram
        rhs = np.einsum("zjl,li->ijz", _CM, g) + np.einsum("zil,lj->ijz", _CM, g)
        low = self._chol  # g = low @ low.T
        sol = np.linalg.solve(low.T, np.linalg.solve(low, rhs.reshape(64, 8).T))
        u3 = 0.5 * sol.T.reshape(8, 8, 8)
        u3.setflags(write=False)
        return u3

    @cached_property
    def n3(self) -> np.ndarray:
        """Connection coefficients nabla_{e_i} e_j in the raw basis."""
        n3 = self.u3 + 0.5 * _CM
        n3.setflags(write=False)
        return n3

    @cached_property
    def _nop(self) -> np.ndarray:
        # nop[i][l, k]: matrix of nabla_{e_i} acting on m
        return self.n3.transpose(0, 2, 1)

    @cached_property
    def r4(self) -> np.ndarray:
        """Curvature on basis triples: r4[i, j, :, k] = R(e_i, e_j) e_k.

        Only :func:`curvature` needs the full tensor; the Ricci trace is
        taken without building it.
        """
        nop = self._nop
        comp = np.einsum("ilm,jmk->ijlk", nop, nop)
        r4 = (
            comp
            - comp.transpose(1, 0, 2, 3)
            - np.einsum("ijm,mlk->ijlk", _CM, nop)
            - np.einsum("ija,alk->ijlk", _CH, _ADH)
        )
        r4.setflags(write=False)
        return r4

    @cached_property
    def ricci_raw(self) -> np.ndarray:
        """rho on basis pairs: rho[i, j] = sum_l (R(e_l, e_i) e_j)_l.

        The trace of each term of R, contracted directly from the
        connection operators.
        """
        nop = self._nop
        rho = (
            np.einsum("llm,imj->ij", nop, nop)
            - nop.reshape(8, 64) @ nop.reshape(64, 8)
            - np.einsum("lim,mlj->ij", _CM, nop)
            - _RHO_H
        )
        rho = 0.5 * (rho + rho.T)  # symmetrize away roundoff
        rho.setflags(write=False)
        return rho

    # ---- frame tensors ----------------------------------------------------
    def _require_params(self) -> MetricParams:
        if self.params is None:
            raise ValueError("this operation needs the metric parameters behind the form")
        return self.params

    @cached_property
    def _frame_obj(self):
        return orthonormal_frame(self._require_params())

    @property
    def frame(self) -> np.ndarray:
        return self._frame_obj.matrix

    @property
    def frame_inv(self) -> np.ndarray:
        return self._frame_obj.inverse

    def _to_frame3(self, raw3: np.ndarray) -> np.ndarray:
        # out[i, j, k] = f[a, i] f[b, j] raw3[a, b, l] finv[k, l], one index at a time
        f, finv = self.frame, self.frame_inv
        out = np.tensordot(f, raw3 @ finv.T, axes=(0, 0))  # [i, b, k]
        out = np.tensordot(f, out, axes=(0, 1)).transpose(1, 0, 2)
        out.setflags(write=False)
        return out

    @cached_property
    def cm_frame(self) -> np.ndarray:
        """Projected brackets [.,.]_m on frame pairs, frame coordinates."""
        return self._to_frame3(_CM)

    @cached_property
    def u_frame(self) -> np.ndarray:
        return self._to_frame3(self.u3)

    @cached_property
    def n_frame(self) -> np.ndarray:
        return self._to_frame3(self.n3)

    @cached_property
    def ricci_frame(self) -> np.ndarray:
        """rho in the orthonormal frame: the raw trace evaluated on frame pairs."""
        f = self.frame
        rho = f.T @ self.ricci_raw @ f
        rho = 0.5 * (rho + rho.T)
        rho.setflags(write=False)
        return rho

    @cached_property
    def ledger_frame(self) -> np.ndarray:
        """First Ledger form on frame triples; fully symmetric."""
        n, rho = self.n_frame, self.ricci_frame
        d = -np.einsum("ijl,lk->ijk", n, rho) - np.einsum("ikl,jl->ijk", n, rho)
        lgr = d + d.transpose(1, 2, 0) + d.transpose(2, 0, 1)
        lgr.setflags(write=False)
        return lgr


@lru_cache(maxsize=256)
def _cached_geometry(params: MetricParams) -> _Geometry:
    return _Geometry(build_form(params))


def _geometry(form: AdaptedForm) -> _Geometry:
    if form.params is not None:
        return _cached_geometry(form.params)
    return _Geometry(form)


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def u_map(x, y, form: AdaptedForm) -> np.ndarray:
    """Symmetric bilinear map U(x, y), solved from its defining system.

    The unique solution of 2B(U(x,y),Z) = B(x,[Z,y]_m) + B([Z,x]_m,y) over
    all Z in m, obtained with the positive-definite Gram matrix of ``form``.
    Inputs and output are raw m-coordinates.
    """
    x = _as_m_vector(x)
    y = _as_m_vector(y)
    return np.einsum("ijk,i,j->k", _geometry(form).u3, x, y)


def nabla(x, y, form: AdaptedForm) -> np.ndarray:
    """Connection operator nabla_x y = U(x,y) + [x,y]_m / 2 (raw m-coordinates)."""
    x = _as_m_vector(x)
    y = _as_m_vector(y)
    return np.einsum("ijk,i,j->k", _geometry(form).n3, x, y)


def curvature(x, y, z, form: AdaptedForm) -> np.ndarray:
    """Curvature R(x, y) z at the origin (raw m-coordinates).

    Antisymmetric in (x, y) and skew-adjoint with respect to the form.
    """
    x = _as_m_vector(x)
    y = _as_m_vector(y)
    z = _as_m_vector(z)
    return np.einsum("ijlk,i,j,k->l", _geometry(form).r4, x, y, z)


def ricci(form: AdaptedForm) -> np.ndarray:
    """Ricci matrix in the orthonormal frame (8x8 symmetric).

    rho_ij = rho(E_i, E_j), where rho(X, Y) is the trace of V -> R(V, X) Y;
    the trace needs no frame, so it equals sum_k <R(E_k, E_i) E_j, E_k>.
    Requires ``form.params``.
    """
    return _geometry(form).ricci_frame


def ledger(x, y, z, form: AdaptedForm) -> float:
    """First Ledger form L(x, y, z); cyclic by construction, fully symmetric.

    Inputs are raw m-coordinates; any positive-definite form will do.
    """
    geo = _geometry(form)
    rho = geo.ricci_raw
    n3 = geo.n3
    vecs = (_as_m_vector(x), _as_m_vector(y), _as_m_vector(z))

    def d_rho(a, b, c):
        nab_ab = np.einsum("ijk,i,j->k", n3, a, b)
        nab_ac = np.einsum("ijk,i,j->k", n3, a, c)
        return -nab_ab @ rho @ c - b @ rho @ nab_ac

    total = 0.0
    for s in range(3):
        a, b, c = vecs[s], vecs[(s + 1) % 3], vecs[(s + 2) % 3]
        total += d_rho(a, b, c)
    return float(total)


def bracket_table(p: MetricParams) -> np.ndarray:
    """Projected brackets on frame pairs: table[i, j, :] = [E_i, E_j]_m in frame coordinates."""
    return _cached_geometry(p).cm_frame


def u_table(p: MetricParams) -> np.ndarray:
    """U on frame pairs, frame coordinates; symmetric in the first two indices."""
    return _cached_geometry(p).u_frame


def nomizu_table(p: MetricParams) -> np.ndarray:
    """Connection coefficients on frame pairs: table[i, j, :] = nabla_{E_i} E_j."""
    return _cached_geometry(p).n_frame


def ledger_table(p: MetricParams) -> np.ndarray:
    """First Ledger form on all frame triples (8x8x8, fully symmetric)."""
    return _cached_geometry(p).ledger_frame
