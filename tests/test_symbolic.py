"""Symbolic proofs on the closed forms of the oracles.

Everything is a rational function of sympy symbols t, u, v, w and k, with
K kept as the symbol k bound by 4 t^2 k^2 = 4 t^4 - u^2.

* The Ricci closed forms of ``oracles.expected_ricci_entries`` follow from
  the structure constants of the literal 5x5 model alone: Besse's formula
  (Einstein Manifolds, Cor. 7.38) on the brackets C of the orthonormal
  frame and the Killing form gives them, entry by entry, modulo the K
  relation.  That is, a numerator is divisible by the relation as a
  polynomial in k (zero pseudo-remainder); the leading coefficient 4 t^2
  and the denominators, products of t, v, w and k, do not vanish on the
  admissible set.
* The first Ledger form L = -2 sum_cyc rho(U(X,Y), Z) is linear in the five
  Ricci entries.  Its nonzero frame triples carry the four reduced
  equations of ``oracles.expected_reduced_terms`` times factors built from
  t, v, w and k, so L = 0 iff all four vanish, at every admissible point.
  One equation is a combination of the other three.
* In the root-space basis P of the torus weights, where every adapted
  form is diag(x), x = (t^2 + u/2, t^2 - u/2, v^2, w^2), the same formulas
  give rho = diag(r1, r1, r2, r2, r3, r3, r4, r4) with the r_k of
  ``oracles.expected_root_ricci`` (F1), and L is, on the module triples
  alone, -c0 [(x3 - x_a) r4 + (x4 - x3) r_a + (x_a - x4) r3] / sqrt(x_a x3 x4)
  (F2), which is (x4 - x3) Q_a / (2 x1 x2 x3 x4) with the Q_a of
  ``zksym.geometry``.  These are identities of rational functions of
  s_k = sqrt(x_k).
* There, too, the ratios a, b, c = sqrt(x_a / (x3 x4)), sqrt(x3 / (x_a x4)),
  sqrt(x4 / (x_a x3)) of C on the triple of alpha differ by (x3 - x4),
  (x4 - x_a) and (x3 - x_a) over sqrt(x_a x3 x4), and the squared singular
  values of U's rows, one per module, and ||U||^2 are sums of squares of
  those differences (F15): each point verdict but the Ledger one is an
  equality of x.
* The four reduced equations are closed combinations of the two
  determinants D_a, as ``analysis.ledger_system_residuals`` reads them:
  -(D1 + D2)/2, -(D1 - D2)/(2t), sgn t (x2 D1 - x1 D2)/(2 vw sqrt(x1 x2))
  and -(x2 D1 + x1 D2)/(2t^2), with vw signed and sqrt(x1 x2) = |t| K.
* Q1 - Q2 = (x1 - x2) R with R = 7 x1 x2 - 2 (x1 + x2)(x3 + x4) + x3^2 -
  6 x3 x4 + x4^2 (F9), and at t = 1, x1,2 = 1 +- h, S = x3 + x4, P = x3 x4
  the lex Groebner basis of (Q1, R) is the two polynomials from which the
  solvers' formulas are read (F11).  The admissible cone cuts the u != 0
  component into two arcs, S in (1/3, (7 - sqrt 17)/2) and (4, (7 + sqrt 17)/2),
  and the u = 0 one into S in (1, 9).  Q1 + x2 R is a quadratic in x3 + x4
  alone, and R is linear in x3 x4 (F17).
* The real positive Einstein metrics are, up to the swaps x1 <-> x2 and
  x3 <-> x4, the Kaehler-Einstein x ~ (2, 4, 3, 1) and the u = 0 metric
  with (V, W) = 3/4 +- sqrt 6 / 8 (F5): at t = 1 the lex Groebner bases of
  r1 - r2, r1 - r3 and r1 - r4, saturated, are zero-dimensional.
* What ``geometry._partials`` forms is D_a and its four terms x_k dD_a/dx_k,
  each over x3 + x4, and the oracle's terms are x_k dD_a/dx_k: the
  backward error eta_a = |D_a| / sum_k |x_k dD_a/dx_k| that the Ledger
  verdict reads.
* At u = 0 (x1 = x2) the space is a generalized Wallach space (F19): F1's
  r is Nikonorov's three-module Ricci formula at y = x/6 and a = (1/6, 1/3,
  1/3), and its collinearity determinant is (x_B - x_C) times the quadratic
  that gives the P of ``analysis.solve_ledger_u0``.
* Along the Ricci flow dx_k/dt = -2 x_k r_k, with F1's r, the planes x3 = x4
  and x1 = x2 are invariant, since r3 = r4 on the first and r1 = r2 on the
  second; of the three Ledger components only x3 = x4 is (F25).  A point of
  {x1 = x2, Q1 = 0} where Q1 moves, and one of {Q1 = R = 0} where R moves,
  decide the other two.  Q1 and R are homogeneous, of degrees 3 and 2, so
  the volume-normalized flow, whose extra radial term c x adds c deg(f) f
  to df/dt, a multiple of each generator f on the set, gives the same
  verdicts.  The Kaehler-Einstein x = (2, 4, 3, 1) has r = (1, 1, 1, 1).
* On a solution family the four reduced equations vanish if each
  numerator lies in the family's ideal, saturated by t v w k (the
  auxiliary y with y t v w k = 1 removes the components where a
  denominator vanishes).  Membership is decided by reduction modulo a
  Groebner basis.
"""

import functools
import itertools
import types

import numpy as np
import pytest
import sympy as sp

from oracles import (expected_reduced_terms, expected_ricci_entries, expected_root_ricci, ledger_determinants,
                     ledger_rows, structure_constants)
from zksym import (MetricParams, first_ledger_verdict, geometry, is_naturally_reductive, solve_ledger_u0,
                   solve_ledger_unonzero)

t, u, v, w, k, y = sp.symbols("t u v w k y")
_K_DEFINITION = 4 * t**2 * k**2 - 4 * t**4 + u**2
_S = v**2 + w**2  # S t^2
_POINT = types.SimpleNamespace(t=t, u=u, v=v, w=w, k_squared=t**2 - u**2 / (4 * t**2))
_ENTRIES = expected_ricci_entries(_POINT, sqrt=lambda _: k)
_R = sp.symbols("r11 r33 r55 r77 r14")  # the columns of the reduced system

# Each family in (t, u, v, w), with V = v^2/t^2, W = w^2/t^2 and S = V + W.
FAMILIES = {
    "v = w": [w - v],
    # u = 0, V W = (S - 1)(9 - S)/8
    "u = 0": [u, 8 * v**2 * w**2 - (_S - t**2) * (9 * t**2 - _S)],
    # V W = S(4 - S)(3S - 1)/(8(8 - 3S)), u^2 = 4(8 - 7S + S^2)/(8 - 3S) t^4
    "u != 0": [
        8 * v**2 * w**2 * (8 * t**2 - 3 * _S) - _S * (4 * t**2 - _S) * (3 * _S - t**2),
        u**2 * (8 * t**2 - 3 * _S) - 4 * t**2 * (8 * t**4 - 7 * _S * t**2 + _S**2),
    ],
}


def _vanishes(expr) -> bool:
    """Whether a rational function is zero modulo the K relation."""
    numer = sp.expand(sp.numer(sp.together(expr)))
    return sp.prem(numer, _K_DEFINITION, k) == 0


def _ricci_matrix(e) -> sp.Matrix:
    """The 8x8 Ricci matrix of the frame from its five entries, in the layout of ``oracles``."""
    rho = sp.diag(e[0], e[0], e[1], e[1], e[2], e[2], e[3], e[3])
    rho[0, 3] = rho[3, 0] = e[4]
    rho[1, 2] = rho[2, 1] = -e[4]
    return rho


@functools.cache
def _frame() -> sp.Matrix:
    """Orthonormal frame (A~1..C~2) as columns in raw m-coordinates, from the coframe of ``zksym.metric``."""
    mix = u / (2 * t**2 * k)
    f = sp.diag(1 / t, 1 / t, 1 / k, 1 / k, 1 / v, 1 / v, 1 / w, 1 / w)
    f[1, 2], f[0, 3] = mix, -mix
    return f


@functools.cache
def _brackets() -> list:
    """C[i][j][k]: frame component k of [E_i, E_j]_m, from the literal model."""
    cm = structure_constants()[2:, 2:, 2:]  # the m block A1..C2 follows X1, X2
    f = _frame()
    finv = f.inv()
    raw = [f.T * sp.Matrix(cm[:, :, l]) * f for l in range(8)]  # raw[l][i, j]: raw component l
    return [[[sp.cancel(sum(finv[c, l] * raw[l][i, j] for l in range(8))) for c in range(8)]
             for j in range(8)] for i in range(8)]


@functools.cache
def _u_table() -> list:
    """U[i][j][k] = (C[k][j][i] + C[k][i][j]) / 2, the solution of its defining equation in the frame."""
    c = _brackets()
    return [[[(c[m][j][i] + c[m][i][j]) / 2 for m in range(8)] for j in range(8)] for i in range(8)]


def test_frame_is_orthonormal():
    gram = sp.diag(t**2, t**2, t**2, t**2, v**2, v**2, w**2, w**2)
    gram[0, 3] = gram[3, 0] = u / 2
    gram[1, 2] = gram[2, 1] = -u / 2
    defect = _frame().T * gram * _frame() - sp.eye(8)
    assert all(_vanishes(x) for x in defect)


def test_ricci_closed_forms_follow_from_the_brackets():
    c = _brackets()
    c2 = structure_constants()
    killing = sp.Matrix(np.einsum("apq,bqp->ab", c2, c2)[2:, 2:])
    b = _frame().T * killing * _frame()
    expected = _ricci_matrix([_ENTRIES[name] for name in ("r11", "r33", "r55", "r77", "r14")])
    for p, q in itertools.combinations_with_replacement(range(8), 2):
        rho = (
            sum(c[i][j][p] * c[i][j][q] for i in range(8) for j in range(8)) / 4
            - sum(c[p][j][m] * c[q][j][m] for j in range(8) for m in range(8)) / 2
            - b[p, q] / 2
        )
        assert _vanishes(rho - expected[p, q]), (p, q)


def test_so5_is_unimodular_in_the_frame():
    # sum_i U(E_i, E_i) = 0, the condition under which Besse's formula has no further term
    ut = _u_table()
    assert [sp.simplify(sum(ut[i][i][m] for i in range(8))) for m in range(8)] == [0] * 8


def _reduced_system() -> sp.Matrix:
    """The (4, 5) coefficients of the oracle's reduced equations over (r11, r33, r55, r77, r14)."""
    column = {_ENTRIES[name]: j for j, name in enumerate(("r11", "r33", "r55", "r77", "r14"))}
    coef = sp.zeros(4, 5)
    for i, terms in enumerate(expected_reduced_terms(_POINT, sqrt=lambda _: k)):
        for c, entry in terms:
            coef[i, column[entry]] += c
    return coef


def test_first_ledger_form_is_the_reduced_system():
    ut, rho = _u_table(), _ricci_matrix(_R)
    system = _reduced_system()

    def e(i, j, m):  # rho(U(E_i, E_j), E_m)
        return sum(ut[i][j][l] * rho[l, m] for l in range(8))

    for i, j, m in itertools.combinations_with_replacement(range(8), 3):
        ledger = sp.expand(-2 * (e(i, j, m) + e(j, m, i) + e(m, i, j)))
        row, factor = ledger_rows(t, v, w, k).get((i, j, m), (0, 0))
        for col, r in enumerate(_R):
            assert _vanishes(ledger.coeff(r) - factor * system[row, col]), (i, j, m, r)


def test_reduced_system_has_rank_three():
    # v w eq3 = u/(2 t k) eq4 - k eq2 everywhere, and the minor below is
    # nonzero off u = 0 and v^2 = w^2, so the rank is 3 there (at most 3 on them)
    eq = _reduced_system()
    combination = v * w * eq[2, :] - u / (2 * t * k) * eq[3, :] + k * eq[1, :]
    assert all(_vanishes(x) for x in combination)
    minor = eq.extract([0, 1, 2], [0, 1, 2]).det()
    assert sp.simplify(minor - u**2 * (v**2 - w**2) ** 2 / (4 * k * t**2 * v * w)) == 0


@functools.cache
def _numerators() -> list:
    equations = [sum(c * r for c, r in eq) for eq in expected_reduced_terms(_POINT, sqrt=lambda _: k)]
    return [sp.expand(sp.numer(sp.together(e))) for e in equations]


def _basis(relations: list) -> sp.GroebnerBasis:
    gens = relations + [_K_DEFINITION, y * t * v * w * k - 1]
    basis = sp.groebner(gens, y, u, k, v, w, t, order="grevlex")
    assert list(basis.exprs) != [1], "the relations admit no point"
    return basis


@pytest.mark.parametrize("family", FAMILIES)
def test_reduced_system_vanishes_identically_on_the_family(family):
    basis = _basis(FAMILIES[family])
    assert [basis.reduce(n)[1] for n in _numerators()] == [0, 0, 0, 0]


def test_reduced_system_does_not_vanish_off_the_families():
    # the control: with K as the only relation, no equation reduces to zero
    basis = _basis([])
    assert all(basis.reduce(n)[1] != 0 for n in _numerators())


# ----------------------------------------------------------------------
# the root-space frame: F1 and F2
# ----------------------------------------------------------------------

_ROOT_S = sp.symbols("s1:5", positive=True)  # s_k = sqrt(x_k)
_ROOT_X = [s_ * s_ for s_ in _ROOT_S]


@functools.cache
def _root_basis() -> sp.Matrix:
    """Columns (A1 + A4, A2 - A3, A1 - A4, A2 + A3)/sqrt 2, B1, B2, C1, C2 in raw coordinates."""
    p = sp.eye(8)
    p[:4, :4] = sp.Matrix([[1, 0, 1, 0], [0, 1, 0, 1], [0, -1, 0, 1], [1, 0, -1, 0]]) / sp.sqrt(2)
    return p


@functools.cache
def _root_brackets() -> tuple:
    """c0 of m in P from the literal model, and C[i][j][k] of the frame E = P diag(x)^(-1/2)."""
    cm = structure_constants()[2:, 2:, 2:]
    p = _root_basis()
    c0 = [[[sp.nsimplify(sum(p[a, i] * p[b, j] * cm[a, b, l] * p[l, k] for a in range(8) for b in range(8)
                              for l in range(8) if cm[a, b, l]))
            for k in range(8)] for j in range(8)] for i in range(8)]
    s_ = [_ROOT_S[i // 2] for i in range(8)]
    return c0, [[[c0[i][j][k] * s_[k] / (s_[i] * s_[j]) for k in range(8)] for j in range(8)] for i in range(8)]


def test_the_adapted_forms_are_diagonal_in_the_root_basis():
    gram = sp.diag(t**2, t**2, t**2, t**2, v**2, v**2, w**2, w**2)
    gram[0, 3] = gram[3, 0] = u / 2
    gram[1, 2] = gram[2, 1] = -u / 2
    x = (t**2 + u / 2, t**2 - u / 2, v**2, w**2)
    assert sp.simplify(_root_basis().T * gram * _root_basis() - sp.diag(*[x[i // 2] for i in range(8)])) == sp.zeros(8)
    c0, _ = _root_brackets()
    nonzero = [(i, j, k) for i in range(8) for j in range(8) for k in range(8) if c0[i][j][k] != 0]
    assert len(nonzero) == 48 and {abs(c0[i][j][k]) for i, j, k in nonzero} == {1 / sp.sqrt(2)}
    assert {tuple(sorted({i // 2, j // 2, k // 2})) for i, j, k in nonzero} == {(0, 2, 3), (1, 2, 3)}


def test_root_ricci_eigenvalues_follow_from_the_brackets():
    _, c = _root_brackets()
    c2 = structure_constants()
    killing = sp.Matrix(np.einsum("apq,bqp->ab", c2, c2)[2:, 2:])
    frame = _root_basis() * sp.diag(*[1 / _ROOT_S[i // 2] for i in range(8)])
    b = frame.T * killing * frame
    r = expected_root_ricci(*_ROOT_X)
    for p, q in itertools.combinations_with_replacement(range(8), 2):
        rho = (
            sum(c[i][j][p] * c[i][j][q] for i in range(8) for j in range(8)) / 4
            - sum(c[p][j][m] * c[q][j][m] for j in range(8) for m in range(8)) / 2
            - b[p, q] / 2
        )
        assert sp.cancel(rho - (r[p // 2] if p == q else 0)) == 0, (p, q)


def test_the_first_ledger_form_is_two_collinearities():
    c0, c = _root_brackets()
    r = [expected_root_ricci(*_ROOT_X)[i // 2] for i in range(8)]
    ut = [[[(c[m][j][i] + c[m][i][j]) / 2 for m in range(8)] for j in range(8)] for i in range(8)]
    x1, x2, x3, x4 = _ROOT_X
    rk = expected_root_ricci(*_ROOT_X)
    for i, j, m in itertools.combinations_with_replacement(range(8), 3):
        ledger = -2 * (ut[i][j][m] * r[m] + ut[j][m][i] * r[i] + ut[m][i][j] * r[j])
        if sorted({i // 2, j // 2, m // 2}) not in ([0, 2, 3], [1, 2, 3]):
            assert sp.cancel(ledger) == 0, (i, j, m)
            continue
        a = i // 2  # i < j < m, so E_i lies in the root space e1 -+ e2 of the triple
        xa, xb = (x1, x2) if a == 0 else (x2, x1)
        det = (x3 - xa) * rk[3] + (x4 - x3) * rk[a] + (xa - x4) * rk[2]
        assert sp.cancel(ledger * _ROOT_S[a] * _ROOT_S[2] * _ROOT_S[3] + c0[i][j][m] * det) == 0, (i, j, m)
        q = xa * (x3 + x4 - xa) ** 2 + 8 * xb * (xa - x3) * (xa - x4) - xa * (xa - xb) * (xa + xb)
        assert sp.cancel(det - (x4 - x3) * q / (2 * x1 * x2 * x3 * x4)) == 0


def test_the_reduced_system_is_read_off_the_determinants():
    # t, v and w are symbols of either sign, and vw is their signed product; x1 x2 = t^2 K^2, so
    # sgn t / sqrt(x1 x2) = 1 / (t K) at either sign of t
    x1, x2, x3, x4 = t**2 + u / 2, t**2 - u / 2, v**2, w**2
    assert _vanishes(x1 * x2 - t**2 * k**2)
    size, kk = sp.symbols("size kk", positive=True)
    assert all(sp.sign(s_ * size) / sp.sqrt((s_ * size * kk) ** 2) == 1 / (s_ * size * kk) for s_ in (1, -1))
    r = expected_root_ricci(x1, x2, x3, x4)
    d1, d2 = ((x3 - xa) * r[3] + (x4 - x3) * r[a] + (xa - x4) * r[2] for a, xa in ((0, x1), (1, x2)))
    reduced = [-(d1 + d2) / 2, -(d1 - d2) / (2 * t),
               (x2 * d1 - x1 * d2) / (2 * v * w * t * k), -(x2 * d1 + x1 * d2) / (2 * t**2)]
    for got, terms in zip(reduced, expected_reduced_terms(_POINT, sqrt=lambda _: k)):
        assert _vanishes(got - sum(c * entry for c, entry in terms))


def test_the_point_verdicts_are_equalities_of_x():
    # On the triple of alpha, C's ratios are a, b, c = sqrt(x_a / (x3 x4)), sqrt(x3 / (x_a x4)), sqrt(x4 / (x_a x3)),
    # and their differences are differences of x over sqrt(x_a x3 x4) > 0.  The rows U[i, j, :] (i <= j) have
    # Gram matrix sigma_k^2 on the root vectors of module k, and sigma_k^2 and ||U||^2 are sums of squares of
    # those differences.  So sigma_A1 = sigma_A2 = 0 iff x3 = x4, sigma_B = 0 iff x1 = x2 = x4, sigma_C = 0 iff
    # x1 = x2 = x3, and U = 0 iff x1 = x2 = x3 = x4: the sets that check-nr and isometries decide.
    _, c = _root_brackets()
    ut = [[[(c[m][j][i] + c[m][i][j]) / 2 for m in range(8)] for j in range(8)] for i in range(8)]
    _, _, x3, x4 = _ROOT_X
    ratios = []
    for sa, xa in zip(_ROOT_S[:2], _ROOT_X[:2]):
        a, b, cc = sp.sqrt(xa / (x3 * x4)), sp.sqrt(x3 / (xa * x4)), sp.sqrt(x4 / (xa * x3))
        root = sa * _ROOT_S[2] * _ROOT_S[3]  # sqrt(x_a x3 x4)
        assert sp.cancel(b - cc - (x3 - x4) / root) == 0
        assert sp.cancel(cc - a - (x4 - xa) / root) == 0
        assert sp.cancel(b - a - (x3 - xa) / root) == 0
        ratios.append((a, b, cc))
    (a1, b1, c1), (a2, b2, c2) = ratios
    sigma2 = [(b1 - c1) ** 2 / 4, (b2 - c2) ** 2 / 4, ((c1 - a1) ** 2 + (c2 - a2) ** 2) / 4,
              ((b1 - a1) ** 2 + (b2 - a2) ** 2) / 4]
    for p, q in itertools.combinations_with_replacement(range(8), 2):
        gram = sum(ut[i][j][p] * ut[i][j][q] for i in range(8) for j in range(i, 8))
        assert sp.cancel(gram - (sigma2[p // 2] if p == q else 0)) == 0, (p, q)
    norm2 = sum(ut[i][j][m] ** 2 for i in range(8) for j in range(8) for m in range(8))
    assert sp.cancel(norm2 - sum((a - b) ** 2 + (b - cc) ** 2 + (cc - a) ** 2 for a, b, cc in ratios)) == 0


# ----------------------------------------------------------------------
# the Ledger ideal (F9, F11) and the backward error of D_alpha
# ----------------------------------------------------------------------

_X = sp.symbols("x1:5", positive=True)


def _q_form(xa, xb, x3, x4):
    """Q_alpha of F2, with beta the other of 1, 2."""
    return xa * (x3 + x4 - xa) ** 2 + 8 * xb * (xa - x3) * (xa - x4) - xa * (xa * xa - xb * xb)


def test_the_ledger_ideal_splits_and_its_groebner_basis_gives_the_solvers():
    x1, x2, x3, x4 = _X
    r = 7 * x1 * x2 - 2 * (x1 + x2) * (x3 + x4) + x3**2 - 6 * x3 * x4 + x4**2
    assert sp.expand(_q_form(x1, x2, x3, x4) - _q_form(x2, x1, x3, x4) - (x1 - x2) * r) == 0
    # Q1 and R are symmetric in (x3, x4): written in S = x3 + x4, P = x3 x4 at t = 1, x1,2 = 1 +- h
    big_p, h, big_s = sp.symbols("P h S")
    xa, xb = 1 + h, 1 - h
    q1 = xa * (big_s - xa) ** 2 + 8 * xb * (xa * xa - xa * big_s + big_p) - xa * (xa * xa - xb * xb)
    r1 = 7 * xa * xb - 2 * (xa + xb) * big_s + big_s**2 - 8 * big_p
    symmetric = {big_s: x3 + x4, big_p: x3 * x4, h: x1 - 1}
    assert sp.expand(q1.subs(symmetric) - _q_form(x1, 2 - x1, x3, x4)) == 0
    assert sp.expand(r1.subs(symmetric) - r.subs(x2, 2 - x1)) == 0
    basis = sp.groebner([q1, r1], big_p, h, big_s, order="lex")
    assert list(basis.exprs) == [8 * big_p - big_s**2 + 4 * big_s + 7 * h**2 - 7,
                                 big_s**2 + 3 * big_s * h**2 - 7 * big_s - 8 * h**2 + 8]
    # the second element is linear in h^2 and the first in P: the formulas of solve_ledger_unonzero, with h = u/2
    h2 = sp.solve(basis.exprs[1].subs(h**2, sp.Symbol("h2")), sp.Symbol("h2"))[0]
    p_u1 = sp.solve(basis.exprs[0].subs(h**2, h2), big_p)[0]
    assert sp.cancel(h2 - (8 - 7 * big_s + big_s**2) / (8 - 3 * big_s)) == 0
    assert sp.cancel(p_u1 - big_s * (4 - big_s) * (3 * big_s - 1) / (8 * (8 - 3 * big_s))) == 0
    # at h = 0 (u = 0, x1 = x2), Q1 = 0 alone reads the P of solve_ledger_u0
    p_u0 = sp.solve(q1.subs(h, 0), big_p)[0]
    assert sp.factor(p_u0 - (big_s - 1) * (9 - big_s) / 8) == 0
    for sol in solve_ledger_unonzero(0.4, 1.0, 4 / 3, 1.43):
        assert sol.Usq / 4 == pytest.approx(float(h2.subs(big_s, sol.S)), rel=1e-13)
        assert sol.V * sol.W == pytest.approx(float(p_u1.subs(big_s, sol.S)), rel=1e-13)
    for sol in solve_ledger_u0(1.5, 5.0, 8.9):
        assert sol.V * sol.W == pytest.approx(float(p_u0.subs(big_s, sol.S)), rel=1e-13)


def test_the_admissible_cone_cuts_two_u_nonzero_arcs_and_one_u_zero_interval():
    # On F11's u != 0 component, h^2 = (S^2 - 7S + 8)/(8 - 3S) and P = S(4 - S)(3S - 1)/(8(8 - 3S)), a metric is
    # admissible iff 0 < h^2 < 1 (u != 0, x2 > 0) and V, W > 0 (S > 0, P > 0, S^2 >= 4P).  solveset decides each
    # rational inequality exactly: the set is (1/3, (7 - sqrt 17)/2), the solver's interval, and (4, (7 + sqrt 17)/2),
    # a second arc that no solver returns.  It leaves the u = 0 family at S = (7 + sqrt 17)/2, where h = 0, and runs
    # to h^2 = 1, P = 0 at S = 4.  On the u = 0 component, P = (S - 1)(9 - S)/8, the set is (1, 9).
    big_s = sp.Symbol("S", real=True)
    h2 = (big_s**2 - 7 * big_s + 8) / (8 - 3 * big_s)
    p_u1 = big_s * (4 - big_s) * (3 * big_s - 1) / (8 * (8 - 3 * big_s))
    p_u0 = (big_s - 1) * (9 - big_s) / 8

    def cone(*conditions):
        return sp.Intersection(*(sp.solveset(c, big_s, sp.S.Reals) for c in conditions))

    root17 = sp.sqrt(17)
    assert cone(h2 > 0, h2 < 1, big_s > 0, p_u1 > 0, big_s**2 - 4 * p_u1 >= 0) == sp.Union(
        sp.Interval.open(sp.Rational(1, 3), (7 - root17) / 2), sp.Interval.open(4, (7 + root17) / 2))
    assert cone(big_s > 0, p_u0 > 0, big_s**2 - 4 * p_u0 >= 0) == sp.Interval.open(1, 9)
    # on the second arc both Q_alpha vanish exactly, and the floats of the point satisfy the Ledger condition
    # to rounding; none of its metrics is naturally reductive
    for s in (sp.Rational(41, 10), sp.Rational(9, 2), sp.Integer(5), sp.Rational(11, 2)):
        h, root = sp.sqrt(h2.subs(big_s, s)), sp.sqrt(s**2 - 4 * p_u1.subs(big_s, s))
        x = (1 + h, 1 - h, (s + root) / 2, (s - root) / 2)
        assert sp.expand(_q_form(*x)) == sp.expand(_q_form(x[1], x[0], *x[2:])) == 0, s
        p = MetricParams(1.0, float(2 * h), float(sp.sqrt(x[2])), float(sp.sqrt(x[3])))
        assert first_ledger_verdict(p, 1e-15)[1] and not is_naturally_reductive(p), s


def test_the_u_nonzero_component_is_one_quadratic_in_x3_plus_x4():
    # F17: with sigma = x3 + x4 and pi = x3 x4, Q1 + x2 R is a quadratic in sigma alone and R is linear in pi, so on
    # Q1 = R = 0 each (x1, x2) gives two sigma and their pi; at t = 1, x1,2 = 1 +- h, the quadratic is twice
    # S^2 - 4S - 3S K^2 + 8K^2 with K^2 = 1 - h^2
    def quadratic(a, b, sigma):
        return (a + b) * sigma**2 - 2 * (a**2 + 5 * a * b + b**2) * sigma + 8 * a * b * (a + b)

    x1, x2, x3, x4 = _X
    sigma, pi = x3 + x4, x3 * x4
    r = 7 * x1 * x2 - 2 * (x1 + x2) * (x3 + x4) + x3**2 - 6 * x3 * x4 + x4**2
    assert sp.expand(_q_form(x1, x2, x3, x4) + x2 * r - quadratic(x1, x2, sigma)) == 0
    assert sp.expand(r - (sigma**2 - 2 * (x1 + x2) * sigma + 7 * x1 * x2 - 8 * pi)) == 0
    h, big_s, k2 = sp.symbols("h S K2")
    at_unit = sp.expand(quadratic(1 + h, 1 - h, big_s)).subs(h**2, 1 - k2)
    assert sp.expand(at_unit - 2 * (big_s**2 - 4 * big_s - 3 * big_s * k2 + 8 * k2)) == 0


def test_the_real_positive_einstein_metrics_are_the_two_on_the_solver_families():
    # F5 as a proof.  At t = 1, x = (1 + h, 1 - h, V, W): the numerators of r1 - r2, r1 - r3 and r1 - r4, saturated
    # by h V W (1 - h^2), have the lex eliminant (W - 1)(3W - 2)(3W - 1); at h = 0, where r1 = r2, those of r1 - r3
    # and r1 - r4, saturated by V W, have (4W^2 - 6W + 3)(32W^2 - 48W + 15), whose first factor has no real root.
    # The real points with V, W > 0 and h^2 < 1 are the Kaehler-Einstein metric x ~ (2, 4, 3, 1), the u != 0
    # solution at S = 4/3, and the u = 0 one with (V, W) = 3/4 +- sqrt 6 / 8 at S = 3/2, up to x1 <-> x2, x3 <-> x4
    h, big_v, big_w, y = sp.symbols("h V W y")
    cases = ((h, h * big_v * big_w * (1 - h**2), (big_w - 1) * (3 * big_w - 2) * (3 * big_w - 1)),
             (sp.Integer(0), big_v * big_w, (4 * big_w**2 - 6 * big_w + 3) * (32 * big_w**2 - 48 * big_w + 15)))
    assert sp.discriminant(4 * big_w**2 - 6 * big_w + 3, big_w) < 0
    found = set()
    for hh, saturation, eliminant in cases:
        r = expected_root_ricci(1 + hh, 1 - hh, big_v, big_w)
        numerators = [sp.numer(sp.together(r[0] - r[k])) for k in (1, 2, 3)]
        gens = [h, big_v, big_w] if hh == h else [big_v, big_w]
        basis = sp.groebner([n for n in numerators if n != 0] + [y * saturation - 1], y, *gens, order="lex")
        assert basis.is_zero_dimensional
        assert sp.expand(basis.exprs[-1] - eliminant) == 0
        for point in sp.solve(basis.exprs[1:], gens, dict=True):  # the elements free of y
            hv, vv, ww = point.get(h, hh), point[big_v], point[big_w]
            if all(a.is_real for a in (hv, vv, ww)) and vv > 0 and ww > 0 and hv**2 < 1:
                found.add((hv, vv, ww))
    third, root6 = sp.Rational(1, 3), sp.sqrt(6) / 8
    kaehler = {(sign * third, a, b) for sign in (1, -1) for a, b in ((1, third), (third, 1))}
    other = {(0, sp.Rational(3, 4) + sign * root6, sp.Rational(3, 4) - sign * root6) for sign in (1, -1)}
    assert found == kaehler | other
    assert {vv + ww for _, vv, ww in found} == {sp.Rational(4, 3), sp.Rational(3, 2)}


def test_the_backward_error_terms_are_the_partials_of_the_determinant():
    # D_a = (x4 - x3) q / 2 with q = Q_a / (x1 x2 x3 x4); the program's D_a and x_k dD_a/dx_k over x3 + x4 from
    # its x_a - x3, x_a - x4, s = x3 + x4 - x_a, q and q's last term, and the oracle's x_k dD_a/dx_k, for k = a, b, 3, 4
    x1, x2, x3, x4 = _X
    oracle = ledger_determinants(x1, x2, x3, x4)
    for (xa, xb), (d_oracle, terms) in zip(((x1, x2), (x2, x1)), oracle):
        q = _q_form(xa, xb, x3, x4) / (x1 * x2 * x3 * x4)
        d = (x4 - x3) * q / 2
        assert sp.cancel(d_oracle - d) == 0
        partials = [x * sp.diff(d, x) for x in (xa, xb, x3, x4)]
        assert [sp.cancel(a - b) for a, b in zip(terms, partials)] == [0] * 4
        got = geometry._partials(xa, xb, x3, x4, xa - x3, xa - x4, x3 + x4 - xa, q,
                                 ((xa - xb) / x3) * ((xa + xb) / x4) / xb)
        assert [sp.cancel(a - b / (x3 + x4)) for a, b in zip(got, [d, *partials])] == [0] * 5
        assert sp.cancel(sum(partials)) == 0  # D_a is of degree 0 in x


def test_the_weyl_group_permutes_the_determinants_and_keeps_their_backward_errors():
    # the premise of one evaluation per Weyl orbit.  e1 <-> e2 swaps x3 and x4: each D_a is negated, and its terms
    # x_k dD_a/dx_k for k = a, b, 3, 4 become minus those for k = a, b, 4, 3, so sum_k |x_k dD_a/dx_k| is the same
    # sum of terms and eta_a = |D_a| / that sum is unchanged, as is ||L||^2 = 12 sum_a D_a^2 / (x_a x3 x4).
    # e2 -> -e2 swaps x1 and x2, which swaps D_1 and D_2 with their terms
    x1, x2, x3, x4 = _X
    oracle = ledger_determinants(x1, x2, x3, x4)
    for (d, terms), (d_swapped, terms_swapped) in zip(oracle, ledger_determinants(x1, x2, x4, x3)):
        assert sp.cancel(d_swapped + d) == 0
        assert [sp.cancel(a + b) for a, b in zip(terms_swapped, [terms[k] for k in (0, 1, 3, 2)])] == [0] * 4
    def norm_squared(x3, x4):  # ||L||^2 / 12
        return sum(d**2 / (xa * x3 * x4) for (d, _), xa in zip(ledger_determinants(x1, x2, x3, x4), (x1, x2)))

    assert sp.cancel(norm_squared(x4, x3) - norm_squared(x3, x4)) == 0
    swapped = ledger_determinants(x2, x1, x3, x4)  # alpha = 1 at (x2, x1, ...) is alpha = 2 at (x1, x2, ...)
    for (d, terms), (d_swapped, terms_swapped) in zip(oracle, swapped[::-1]):
        assert [sp.cancel(a - b) for a, b in zip([d_swapped, *terms_swapped], [d, *terms])] == [0] * 5


# ----------------------------------------------------------------------
# the u = 0 slice as a generalized Wallach space (F19)
# ----------------------------------------------------------------------

_WALLACH_X = sp.symbols("x_A x_B x_C", positive=True)


def _wallach_ricci() -> list:
    """Nikonorov's Ricci eigenvalues of a generalized Wallach space (Geom. Dedicata 2016; Lomshakov, Nikonorov and
    Firsov 2003), r_i = 1/(2y_i) + (a_i/2)(y_i/(y_j y_k) - y_j/(y_i y_k) - y_k/(y_i y_j)), at y = x/6 and
    (a_A, a_B, a_C) = (1/6, 1/3, 1/3)."""
    y = [x / 6 for x in _WALLACH_X]
    a = (sp.Rational(1, 6), sp.Rational(1, 3), sp.Rational(1, 3))
    r = []
    for i in range(3):
        j, l = (m for m in range(3) if m != i)
        r.append(1 / (2 * y[i]) + a[i] / 2 * (y[i] / (y[j] * y[l]) - y[j] / (y[i] * y[l]) - y[l] / (y[i] * y[j])))
    return r


def test_the_u_zero_ricci_eigenvalues_are_those_of_a_generalized_wallach_space():
    # at u = 0 the modules A (d = 4), B and C (d = 2 each) have [m_i, m_i] in h and [m_i, m_j] in m_k, and a_i d_i =
    # 2/3 for each: SO(5)/SO(2)xSO(2)xSO(1) is SO(k+l+m)/SO(k)xSO(l)xSO(m) at (k, l, m) = (2, 2, 1)
    xa, xb, xc = _WALLACH_X
    r_a, r_b, r_c = _wallach_ricci()
    got = expected_root_ricci(xa, xa, xb, xc)
    assert [sp.cancel(g - e) for g, e in zip(got, (r_a, r_a, r_b, r_c))] == [0] * 4


def test_the_u_zero_collinearity_is_a_plane_times_the_quadratic_of_the_u0_solver():
    # D = (x_B - x_A) r_C + (x_C - x_B) r_A + (x_A - x_C) r_B, F2's D_alpha at x1 = x2 = x_A, is (x_B - x_C) times
    # 9 x_A^2 - 10 x_A S + S^2 + 8P in S = x_B + x_C, P = x_B x_C, which at x_A = 1 is 8P - (S - 1)(9 - S): the P of
    # solve_ledger_u0
    xa, xb, xc = _WALLACH_X
    r_a, r_b, r_c = _wallach_ricci()
    det = (xb - xa) * r_c + (xc - xb) * r_a + (xa - xc) * r_b
    big_s, big_p = xb + xc, xb * xc
    quadratic = 9 * xa**2 - 10 * xa * big_s + big_s**2 + 8 * big_p
    assert sp.cancel(det + (xb - xc) * quadratic / (2 * xa * xb * xc)) == 0
    assert len(sp.factor_list(sp.expand(quadratic))[1]) == 1  # irreducible: the cone is a plane and a quadric
    assert sp.expand(quadratic.subs(xa, 1) - (8 * big_p - (big_s - 1) * (9 - big_s))) == 0
    for sol in solve_ledger_u0(1.5, 5.0, 8.9):
        assert 8 * sol.V * sol.W == pytest.approx((sol.S - 1) * (9 - sol.S), rel=1e-13)


# ----------------------------------------------------------------------
# the Ricci flow on the adapted metrics (F25)
# ----------------------------------------------------------------------

def _flow_derivative(f) -> sp.Expr:
    """df/dt along the Ricci flow dx_k/dt = -2 x_k r_k, with F1's r."""
    return sum(sp.diff(f, x) * -2 * x * r for x, r in zip(_X, expected_root_ricci(*_X)))


def test_the_ricci_flow_keeps_x3_equal_x4_and_x1_equal_x2():
    # d(x3 - x4)/dt = -2 (x3 r3 - x4 r4), which is -2 x3 (r3 - r4) on x3 = x4, and r3 - r4 vanishes there; the same
    # for x1 = x2 with r1 - r2.  So x3 = x4, a whole Ledger component, is invariant
    x1, x2, x3, x4 = _X
    r1, r2, r3, r4 = expected_root_ricci(*_X)
    assert sp.cancel((r3 - r4).subs(x4, x3)) == 0
    assert sp.cancel((r1 - r2).subs(x2, x1)) == 0
    assert sp.cancel(_flow_derivative(x3 - x4).subs(x4, x3)) == 0
    assert sp.cancel(_flow_derivative(x1 - x2).subs(x2, x1)) == 0


def test_the_ricci_flow_leaves_the_two_other_ledger_components():
    # one point of a component where one of its generators moves decides it: no Groebner reduction is needed
    x1, x2, x3, x4 = _X
    q1, r = _q_form(x1, x2, x3, x4), 7 * x1 * x2 - 2 * (x1 + x2) * (x3 + x4) + x3**2 - 6 * x3 * x4 + x4**2
    for f, degree in ((q1, 3), (r, 2), (x3 - x4, 1), (x1 - x2, 1)):  # Euler: the radial term c x adds c deg(f) f
        assert sp.expand(sum(x * sp.diff(f, x) for x in _X) - degree * f) == 0
    # {x1 = x2, Q1 = 0}: at x = (1, 1, 1/2, 5/2 - sqrt 2), dQ1/dt = (888 sqrt 2 - 1248)/17, about 0.460
    point = dict(zip(_X, (1, 1, sp.Rational(1, 2), sp.Rational(5, 2) - sp.sqrt(2))))
    assert sp.expand(q1.subs(point)) == 0
    moved = sp.radsimp(_flow_derivative(q1).subs(point))
    assert sp.expand(moved - (888 * sp.sqrt(2) - 1248) / 17) == 0 and float(moved) == pytest.approx(0.460, abs=1e-3)
    # {Q1 = R = 0}: the u != 0 solution at S = 1, x = (1 + s, 1 - s, (1 + s)/2, (1 - s)/2) with s = sqrt(2/5),
    # where dR/dt = -8/9
    s = sp.sqrt(sp.Rational(2, 5))
    point = dict(zip(_X, (1 + s, 1 - s, (1 + s) / 2, (1 - s) / 2)))
    assert sp.expand(q1.subs(point)) == sp.expand(r.subs(point)) == 0
    assert sp.simplify(_flow_derivative(r).subs(point)) == sp.Rational(-8, 9)
    sol = solve_ledger_unonzero(1.0)[0]  # the solver's (V, W, u) at S = 1, t = 1
    assert (sol.V, sol.W, sol.Usq) == pytest.approx((float((1 + s) / 2), float((1 - s) / 2), float(4 * s * s)))


def test_the_kaehler_einstein_metric_has_unit_ricci_eigenvalues():
    # F5's x = (2, 4, 3, 1) gives r = (1, 1, 1, 1): rho = g, a fixed point of the volume-normalized flow
    assert expected_root_ricci(*map(sp.Integer, (2, 4, 3, 1))) == (1, 1, 1, 1)
