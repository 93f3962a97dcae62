import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zksym
from zksym import (
    AdaptedForm,
    DEFAULT_TOL,
    DegenerateMetricError,
    FRAME_NAMES,
    InvalidParamsError,
    MetricParams,
    analysis,
    bracket_table,
    build_form,
    build_so5,
    cli,
    curvature,
    geometry,
    ledger,
    ledger_table,
    m_bracket,
    nabla,
    nomizu_table,
    orthonormal_frame,
    ricci,
    solve_ledger_u0,
    solve_ledger_unonzero,
    u_map,
    u_table,
)

from oracles import (
    adapted_table,
    backward_error,
    cholesky_params,
    exact_point,
    expected_bracket_table,
    expected_ledger_table,
    expected_ricci_entries,
    expected_ricci_matrix,
    expected_root_ricci,
    expected_u_table,
    k_squared,
    ledger_determinants,
    ledger_max as closed_ledger_max,
    sample_params,
    structure_constants,
)

NR_PARAMS = MetricParams(1, 0, 1, 1)


def frame_cols(p):
    return orthonormal_frame(p).matrix.T  # rows are frame vectors


# ----------------------------------------------------------------------
# U map
# ----------------------------------------------------------------------

def test_u_of_a1_b1_closed_form():
    rng = np.random.default_rng(21)
    for _ in range(5):
        p = sample_params(rng)
        form = build_form(p)
        f = orthonormal_frame(p)
        out = u_map(f.vector("A~1"), f.vector("B~1"), form)
        coef = (p.t**2 - p.v**2) / (2 * p.t * p.v * p.w)
        assert np.allclose(out, coef * f.vector("C~1"), atol=1e-13)


def test_u_of_a1_a2_is_zero():
    p = MetricParams(1.3, 0.8, 0.6, 1.7)
    f = orthonormal_frame(p)
    out = u_map(f.vector("A~1"), f.vector("A~2"), build_form(p))
    assert np.max(np.abs(out)) < 1e-14


def test_u_symmetric_in_arguments():
    rng = np.random.default_rng(22)
    p = sample_params(rng)
    form = build_form(p)
    for _ in range(10):
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        assert np.allclose(u_map(x, y, form), u_map(y, x, form), atol=1e-12)


def test_u_vanishes_at_naturally_reductive_point():
    assert np.max(np.abs(u_table(NR_PARAMS))) == 0.0


def test_u_table_matches_closed_forms():
    rng = np.random.default_rng(23)
    for _ in range(5):
        p = sample_params(rng)
        got = u_table(p)
        exp = expected_u_table(p)
        assert np.max(np.abs(got - exp)) < 1e-12


def test_u_map_rejects_non_positive_definite_gram():
    bad = AdaptedForm(gram=np.diag([1.0, 1, 1, -1, 1, 1, 1, 1]))
    with pytest.raises(DegenerateMetricError):
        u_map(np.ones(8), np.ones(8), bad)


# ----------------------------------------------------------------------
# bracket table
# ----------------------------------------------------------------------

def test_bracket_table_matches_closed_forms():
    rng = np.random.default_rng(24)
    for _ in range(5):
        p = sample_params(rng)
        got = bracket_table(p)
        exp = expected_bracket_table(p)
        assert np.max(np.abs(got - exp)) < 1e-12


def test_bracket_table_spot_entries():
    p = MetricParams(1.2, 0.9, 0.7, 1.5)
    t, u, v, w, k = p.t, p.u, p.v, p.w, p.K
    tab = bracket_table(p)
    a1, a2, a3, a4, b1, b2, c1, c2 = range(8)
    # [A~1, B~1] = -(w/tv) C~1
    assert tab[a1, b1, c1] == pytest.approx(-w / (t * v), rel=1e-14)
    # [A~3, C~1] = (v/Kw) B~2
    assert tab[a3, c1, b2] == pytest.approx(v / (k * w), rel=1e-14)
    # [B~2, C~1] = u/(2vwt) A~2 - (K/vw) A~3
    assert tab[b2, c1, a2] == pytest.approx(u / (2 * v * w * t), rel=1e-14)
    assert tab[b2, c1, a3] == pytest.approx(-k / (v * w), rel=1e-14)


# ----------------------------------------------------------------------
# connection
# ----------------------------------------------------------------------

def test_nabla_diagonal_a_entries_vanish():
    p = MetricParams(1.1, 0.4, 0.9, 1.3)
    f = orthonormal_frame(p)
    out = nabla(f.vector("A~1"), f.vector("A~1"), build_form(p))
    assert np.max(np.abs(out)) < 1e-14


def test_nabla_a1_b1_coefficient():
    # nabla_{A~1} B~1 = (t^2 - v^2 - w^2)/(2tvw) C~1: the U term plus half the bracket
    rng = np.random.default_rng(25)
    for _ in range(5):
        p = sample_params(rng)
        f = orthonormal_frame(p)
        out = nabla(f.vector("A~1"), f.vector("B~1"), build_form(p))
        coef = (p.t**2 - p.v**2 - p.w**2) / (2 * p.t * p.v * p.w)
        assert np.allclose(out, coef * f.vector("C~1"), atol=1e-13)


def test_torsion_identity_on_random_vectors():
    rng = np.random.default_rng(26)
    p = sample_params(rng)
    form = build_form(p)
    for _ in range(10):
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        lhs = nabla(x, y, form) - nabla(y, x, form)
        assert np.max(np.abs(lhs - m_bracket(x, y))) < 1e-10


def test_torsion_and_metric_compatibility_on_frame():
    rng = np.random.default_rng(27)
    for _ in range(5):
        p = sample_params(rng)
        n = nomizu_table(p)
        torsion = n - n.transpose(1, 0, 2) - bracket_table(p)
        assert np.max(np.abs(torsion)) < 1e-10
        compat = n + n.transpose(0, 2, 1)
        assert np.max(np.abs(compat)) < 1e-10


# ----------------------------------------------------------------------
# curvature
# ----------------------------------------------------------------------

def test_curvature_antisymmetric_in_first_pair():
    rng = np.random.default_rng(28)
    p = sample_params(rng)
    form = build_form(p)
    x, y, z = (rng.standard_normal(8) for _ in range(3))
    assert np.max(np.abs(curvature(x, x, z, form))) < 1e-12
    assert np.max(np.abs(curvature(x, y, z, form) + curvature(y, x, z, form))) < 1e-12


def test_curvature_skew_adjoint():
    rng = np.random.default_rng(29)
    p = sample_params(rng)
    form = build_form(p)
    g = form.gram
    for _ in range(10):
        x, y, z, w = (rng.standard_normal(8) for _ in range(4))
        s = curvature(x, y, z, form) @ g @ w + z @ g @ curvature(x, y, w, form)
        assert abs(s) < 1e-10


def test_curvature_first_bianchi():
    rng = np.random.default_rng(30)
    p = sample_params(rng)
    form = build_form(p)
    for _ in range(10):
        x, y, z = (rng.standard_normal(8) for _ in range(3))
        b = curvature(x, y, z, form) + curvature(y, z, x, form) + curvature(z, x, y, form)
        assert np.max(np.abs(b)) < 1e-9


def test_curvature_spot_value_at_naturally_reductive_point():
    form = build_form(NR_PARAMS)
    f = orthonormal_frame(NR_PARAMS)
    out = curvature(f.vector("A~1"), f.vector("B~1"), f.vector("B~1"), form)
    assert out @ form.gram @ f.vector("A~1") == pytest.approx(0.25, abs=1e-14)
    # consistency with the Ricci trace in the B~1 direction
    total = sum(
        curvature(fv, f.vector("B~1"), f.vector("B~1"), form) @ form.gram @ fv
        for fv in f.matrix.T
    )
    assert total == pytest.approx(ricci(form)[4, 4], rel=1e-12)


# ----------------------------------------------------------------------
# Ricci
# ----------------------------------------------------------------------

def test_ricci_at_naturally_reductive_point():
    rho = ricci(build_form(NR_PARAMS))
    assert np.allclose(np.diag(rho), [2.5, 2.5, 2.5, 2.5, 2, 2, 2, 2], atol=1e-13)
    assert abs(rho[0, 3]) < 1e-14


def test_ricci_matches_closed_forms():
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = sample_params(rng)
        rho = ricci(build_form(p))
        exp = expected_ricci_entries(p)
        assert rho[0, 0] == pytest.approx(exp["r11"], rel=1e-9)
        assert rho[2, 2] == pytest.approx(exp["r33"], rel=1e-9)
        assert rho[4, 4] == pytest.approx(exp["r55"], rel=1e-9)
        assert rho[6, 6] == pytest.approx(exp["r77"], rel=1e-9)
        assert rho[0, 3] == pytest.approx(exp["r14"], rel=1e-9, abs=1e-13)
        assert np.max(np.abs(rho - expected_ricci_matrix(p))) < 1e-9


def test_killing_form_on_m_is_minus_six():
    # trace(ad X ad Y) = 3 trace(XY) on so(5), and trace(XX) = -2 for a basis matrix
    c = structure_constants()
    killing = np.einsum("apq,bqp->ab", c, c)
    assert np.array_equal(killing, -6 * np.eye(10))


def test_the_half_killing_constants_are_the_bits_numpy_derives():
    # _program's literal constants against -diag(P^T B P) / 2 as numpy forms it, B the Killing form on m
    # (-6 I): exactly 3 in exact arithmetic, but P's rounded sqrt(1/2) moves the A modules' last bit, and
    # the eager values carry that bit
    alg = build_so5()
    ad_m = alg.structure[list(alg.m_indices)]  # ad_m[a, p, q]: component q of [m_a, e_p]
    killing_m = np.einsum("apq,bqp->ab", ad_m, ad_m)
    assert np.array_equal(killing_m, -6 * np.eye(8))
    geometry._arrays()
    derived = (-0.5 * np.diag(geometry._P.T @ killing_m @ geometry._P)[::2]).tolist()
    assert [x.hex() for x in geometry._HALF_KILLING] == [x.hex() for x in derived]
    assert geometry._HALF_KILLING == [3.0000000000000004, 3.0000000000000004, 3.0, 3.0]


def test_the_support_is_the_one_numpy_derives_from_so5():
    # the generated support against c0 = the structure constants of m in P as numpy forms them from build_so5():
    # each entry's index, c0, the ratio columns of k, i and j, L's sign and the triple, in np.nonzero's order
    geometry._arrays()
    p, module = geometry._P, geometry._MODULE
    raw = np.tensordot(p, np.tensordot(p, geometry._CM @ p, (0, 1)), (0, 1))  # c0[i, j, k], as P^-1 = P^T
    c0 = np.where(np.abs(raw) > 0.5, np.copysign(np.sqrt(0.5), raw), 0.0)  # exactly +-1/sqrt 2 or 0
    assert np.max(np.abs(raw - c0)) <= 1e-15
    entries = list(zip(*np.nonzero(c0)))
    i, j, k = np.array(entries).T
    triple = np.minimum(np.minimum(module[i], module[j]), module[k])
    column = 2 * np.maximum(module[[k, i, j]] - 1, 0) + triple
    sign = [-c0[tuple(sorted(e))] for e in entries]
    derived = [64 * i + 8 * j + k, c0[i, j, k], *column, sign, triple]
    assert len(entries) == 48
    for got, want in zip((geometry._INDEX, geometry._C0, geometry._RK, geometry._RI, geometry._RJ,
                          geometry._L_SIGN, geometry._TRIPLE), derived):
        assert [x.hex() if isinstance(x, float) else x for x in got] == \
            [x.hex() if isinstance(x, float) else x for x in np.asarray(want).tolist()]


def test_the_adapted_tables_live_on_the_48_slots_of_the_support():
    # Q carries the 48 root frame entries to 48 of the 512 slots of each adapted table: the generic points fill
    # exactly those with nonzeros of the bracket, U, nomizu and ledger tables, and no point leaves them
    support = set(geometry._SUPPORT)
    assert len(support) == 48 and list(geometry._SUPPORT) == sorted(support)
    rng = np.random.default_rng(25)
    tables = (bracket_table, u_table, nomizu_table, ledger_table)
    seen = set()
    for p in [sample_params(rng) for _ in range(2000)]:
        for table in tables:
            seen.update(np.flatnonzero(table(p)).tolist())
    assert seen == support
    # u = 0, v = w (where L = 0) and the round point (where U and L vanish) keep their nonzeros there too
    special = [MetricParams(1.0, 0.0, 0.7, 1.3), MetricParams(-1.2, 0.0, 0.9, -2.1), MetricParams(1.0, 0.7, 1.3, 1.3),
               MetricParams(0.8, -0.4, 1.1, -1.1), MetricParams(1.0, 0.0, 1.0, 1.0), MetricParams(-2.0, 0.0, 2.0, -2.0)]
    for p in special:
        nonzero = [set(np.flatnonzero(table(p)).tolist()) for table in tables]
        assert set().union(*nonzero) <= support and nonzero[0], p


def _table_points(rng, n):
    # n points per sign pattern of (t, v, w): |t| from 1e-150 to 1e150, K/|t| from 1e-7 to 1, v/t and w/t from
    # 1e-2 to 1e2; of each six, one has u = 0, one v = w and one is the round point
    points = []
    for signs in itertools.product((1.0, -1.0), repeat=3):
        for i in range(n):
            t = 10.0 ** rng.uniform(-150.0, 150.0)
            u = math.copysign(2.0 * t * t * math.sqrt(1.0 - 10.0 ** rng.uniform(-14.0, 0.0)), rng.uniform(-1.0, 1.0))
            v, w = t * 10.0 ** rng.uniform(-2.0, 2.0, 2)
            u, v, w = [(u, v, w), (0.0, v, w), (u, v, v), (0.0, t, t), (u, v, w), (u, v, w)][i % 6]
            points.append(MetricParams(signs[0] * t, u, signs[1] * v, signs[2] * w))
    return points


def test_the_adapted_tables_are_q_as_a_change_of_basis_bit_for_bit():
    # each adapted slot is one rotated A pair of the root support: the same bits as Q's rows applied as a generic
    # change of basis, with no -0.0, over every sign pattern, u = 0, v = w, the round point, K/|t| down to 1e-7 and
    # |t| from 1e-150 to 1e150; a point whose curvature overflows is refused before any table (L ~ 1/t^3)
    compared, scales, ks = 0, [], []
    for p in _table_points(np.random.default_rng(32), 80):
        try:
            geo = geometry._Geometry(p)
        except DegenerateMetricError:
            continue
        for name in ("c", "u", "n", "ledger"):
            table, reference = geo.table(name), adapted_table(geo, name, geometry._INDEX)
            assert list(reference) == list(geometry._SUPPORT), p
            assert list(map(float.hex, table)) == list(map(float.hex, reference.values())), (p, name)
            assert not any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in table), (p, name)
        compared += 1
        scales.append(abs(p.t))
        ks.append(p.K / abs(p.t))
    assert compared >= 400 and min(scales) < 1e-145 and max(scales) > 1e145 and min(ks) < 2e-7


def test_ricci_u_zero_degeneracies():
    p = MetricParams(1.4, 0, 0.8, 1.9)
    rho = ricci(build_form(p))
    assert abs(rho[0, 3]) < 1e-13
    assert abs(rho[1, 2]) < 1e-13
    assert rho[0, 0] == pytest.approx(rho[2, 2], rel=1e-12)


def test_ricci_sparsity_pattern():
    rng = np.random.default_rng(32)
    pattern = np.zeros((8, 8), dtype=bool)
    pattern[np.diag_indices(8)] = True
    pattern[0, 3] = pattern[3, 0] = pattern[1, 2] = pattern[2, 1] = True
    for _ in range(10):
        rho = ricci(build_form(sample_params(rng)))
        assert np.array_equal(rho, rho.T)
        assert np.max(np.abs(rho[~pattern])) < 1e-10
        assert rho[0, 0] == pytest.approx(rho[1, 1], rel=1e-12)
        assert rho[2, 2] == pytest.approx(rho[3, 3], rel=1e-12)
        assert rho[0, 3] == pytest.approx(-rho[1, 2], rel=1e-12, abs=1e-14)


# ----------------------------------------------------------------------
# Ledger form
# ----------------------------------------------------------------------

def test_ledger_vanishes_at_naturally_reductive_point():
    assert np.max(np.abs(ledger_table(NR_PARAMS))) < 1e-14


def test_ledger_nonzero_off_solution():
    p = MetricParams(1, 0, 1, 2)
    f = orthonormal_frame(p)
    val = ledger(f.vector("A~1"), f.vector("B~1"), f.vector("C~1"), build_form(p))
    assert val == pytest.approx(3.0, rel=1e-12)


def test_ledger_cyclic_and_full_symmetry():
    rng = np.random.default_rng(33)
    p = sample_params(rng)
    form = build_form(p)
    for _ in range(5):
        x, y, z = (rng.standard_normal(8) for _ in range(3))
        base = ledger(x, y, z, form)
        assert ledger(y, z, x, form) == pytest.approx(base, rel=1e-12, abs=1e-12)
        assert ledger(y, x, z, form) == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_ledger_function_agrees_with_table():
    p = MetricParams(1, 0, 1, 2)
    form = build_form(p)
    f = orthonormal_frame(p).matrix
    table = ledger_table(p)
    rng = np.random.default_rng(34)
    for _ in range(20):
        i, j, k = rng.integers(0, 8, 3)
        assert ledger(f[:, i], f[:, j], f[:, k], form) == pytest.approx(
            table[i, j, k], rel=1e-12, abs=1e-12
        )


def _ricci_derivative(p: MetricParams) -> np.ndarray:
    """D_ijk = (nabla_{E_i} rho)(E_j, E_k) = -sum_l (N_ijl rho_lk + N_ikl rho_jl), from the public tables."""
    n, rho = nomizu_table(p), ricci(build_form(p))
    return -(np.einsum("ijl,lk->ijk", n, rho) + np.einsum("ikl,jl->ijk", n, rho))


def test_the_ricci_derivative_sums_cyclically_to_the_ledger_table_and_gives_grays_b_norm():
    # Gray's classes: A asks the cyclic sum of D = nabla rho to vanish (the first Ledger condition), B asks
    # B_ijk = D_ijk - D_jik to vanish (Codazzi).  t in [e^-1, e], v and w in [e^-1.5, e^1.5], |u| <= 1.8 t^2,
    # all positive but u; measured 1.7e-13 and 4.1e-15 at worst
    rng = np.random.default_rng(2101)
    for _ in range(300):
        t = math.exp(rng.uniform(-1.0, 1.0))
        v, w = np.exp(rng.uniform(-1.5, 1.5, 2))
        p = MetricParams(t, rng.uniform(-1.8 * t * t, 1.8 * t * t), v, w)
        d, table = _ricci_derivative(p), ledger_table(p)
        cyclic = d + d.transpose(1, 2, 0) + d.transpose(2, 0, 1)
        assert np.max(np.abs(cyclic - table)) <= 1e-12 * max(1.0, np.max(np.abs(table))), p
        b = d - d.transpose(1, 0, 2)
        assert np.sum(b * b) == pytest.approx(3 * np.sum(d * d) - np.sum(table * table) / 3, rel=1e-12), p


@pytest.mark.parametrize("t, u, v, w", [
    (math.sqrt(3), 2.0, math.sqrt(3), 1.0),
    (math.sqrt(3), -2.0, math.sqrt(3), 1.0),
    (1.0, 0.0, math.sqrt(0.75 + math.sqrt(6) / 8), math.sqrt(0.75 - math.sqrt(6) / 8)),
])
def test_the_ricci_derivative_vanishes_at_the_einstein_points(t, u, v, w):
    # rho = lambda I makes D_ijk = -lambda (N_ijk + N_ikj), 0 as N is skew in its last two slots; measured
    # 3.3e-16 at the Kaehler-Einstein points and 2.2e-15 at the u = 0 one
    assert np.max(np.abs(_ricci_derivative(MetricParams(t, u, v, w)))) <= 1e-14


def test_ledger_without_params_matches_table():
    # a bare Gram matrix is read as its parameters, so it gives the table's values
    p = MetricParams(1.3, -0.7, 0.8, 1.6)
    bare = AdaptedForm(gram=build_form(p).gram)
    f = orthonormal_frame(p).matrix
    table = ledger_table(p)
    for i, j, k in [(0, 4, 6), (3, 5, 7), (2, 2, 4), (1, 6, 6)]:
        assert ledger(f[:, i], f[:, j], f[:, k], bare) == pytest.approx(table[i, j, k], rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------------
# exactness oracle: the direct formulas, evaluated through the raw API
# ----------------------------------------------------------------------

_BASIS = np.eye(8)


def _raw3(op, *form):
    return np.array([[op(_BASIS[i], _BASIS[j], *form) for j in range(8)] for i in range(8)])


def _naive_frame3(raw3, frame):
    return np.einsum("ai,bj,abl,kl->ijk", frame.matrix, frame.matrix, raw3, np.linalg.inv(frame.matrix))


def _naive_tables(p):
    """Every table by the direct formulas: a one-step frame change and the
    Ricci trace over the orthonormal frame of the full curvature."""
    form = build_form(p)
    frame = orthonormal_frame(p)
    f, finv = frame.matrix, np.linalg.inv(frame.matrix)
    rho = np.array(
        [
            [sum((finv @ curvature(f[:, k], f[:, i], f[:, j], form))[k] for k in range(8)) for j in range(8)]
            for i in range(8)
        ]
    )
    rho = 0.5 * (rho + rho.T)
    n = _naive_frame3(_raw3(nabla, form), frame)
    d = -np.einsum("ijl,lk->ijk", n, rho) - np.einsum("ikl,jl->ijk", n, rho)
    return {
        "bracket_table": _naive_frame3(_raw3(m_bracket), frame),
        "u_table": _naive_frame3(_raw3(u_map, form), frame),
        "nomizu_table": n,
        "ricci": rho,
        "ledger_table": d + d.transpose(1, 2, 0) + d.transpose(2, 0, 1),
    }


def _oracle_points():
    rng = np.random.default_rng(35)
    points = [sample_params(rng) for _ in range(34)]
    # 16 points with K/|t| log-uniform in [1e-8, 1e-2], up to the K guard
    for _ in range(16):
        t, v, w = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        k_ratio = 10.0 ** rng.uniform(-7.9, -2.0)
        u = 2.0 * t * t * np.sqrt(1.0 - k_ratio**2) * rng.choice([-1.0, 1.0])
        points.append(MetricParams(t, u, v, w))
    return points


def _exact_tables(p):
    """Every table by its closed form in ``oracles``, at 50 digits and rounded once."""
    exact = exact_point(p)
    with mpmath.workdps(50):
        bracket, u = expected_bracket_table(exact), expected_u_table(exact)
        return {
            "bracket_table": bracket,
            "u_table": u,
            "nomizu_table": u + 0.5 * bracket,
            "ricci": expected_ricci_matrix(exact, mpmath.sqrt),
            "ledger_table": expected_ledger_table(exact, mpmath.sqrt),
        }


def _tables(p):
    return {
        "bracket_table": bracket_table(p),
        "u_table": u_table(p),
        "nomizu_table": nomizu_table(p),
        "ricci": ricci(build_form(p)),
        "ledger_table": ledger_table(p),
    }


def test_tables_agree_with_direct_formulas():
    # Near the K guard (the last 16 points) the direct formulas lose about
    # eps (t/K)^2 themselves, in the float K of their frame, so there every
    # table is judged against its exact closed form instead.
    points = _oracle_points()
    for n, p in enumerate(points):
        got = _tables(p)
        for name, ref in (_naive_tables(p) if n < 34 else _exact_tables(p)).items():
            tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got[name] - ref)) <= tol, (name, p)


def test_tables_exact_near_the_k_guard():
    # In the root frame no quotient precedes the differences x2 = t^2 - u/2
    # and x_k - x_j, and t^2 is split exactly, so U and the brackets keep
    # full precision up to the K guard.
    for p in _oracle_points()[34:]:
        assert p.K / abs(p.t) < 1e-2
        exact = _exact_tables(p)
        for name in ("u_table", "bracket_table"):
            got, exp = _tables(p)[name], exact[name]
            assert np.max(np.abs(got - exp)) <= 1e-14 * max(1.0, float(np.max(np.abs(exp)))), p


# ----------------------------------------------------------------------
# the scalar program of the eager values
# ----------------------------------------------------------------------

# the eager values whose formulas are those of the stacked numpy program
EAGER = ("ratios", "r")


def _eager(geo) -> list:
    """A point's eager values name by name."""
    return [getattr(geo, name) for name in EAGER]


def _geometries(points) -> tuple[list, list[int]]:
    """The geometry of each point that computes, and the indices of the points refused."""
    kept, refused = [], []
    for i, p in enumerate(points):
        try:
            kept.append(geometry._Geometry(p))
        except DegenerateMetricError:
            refused.append(i)
    return kept, refused


def _eager_corpus() -> list[MetricParams]:
    """2400 seeded admissible points: |t| in [1e-150, 1e150], K/|t| in [1e-8, 1], v/t and w/t in [1e-2, 1e2],
    signs mixed, one in six with u = 0, one in six with v = w and one in six with u = 0 and w = |t|."""
    rng = np.random.default_rng(64)
    points = []
    while len(points) < 2400:
        t = 10.0 ** rng.uniform(-150.0, 150.0) * rng.choice([-1.0, 1.0])
        k = 10.0 ** rng.uniform(-8.0, 0.0)  # K / |t|
        u = 2.0 * t * t * math.sqrt(1.0 - k * k) * rng.choice([-1.0, 1.0])
        v, w = (t * 10.0 ** rng.uniform(-2.0, 2.0) * rng.choice([-1.0, 1.0]) for _ in range(2))
        kind = rng.integers(6)
        if kind == 1:
            u = 0.0
        elif kind == 2:
            w = v
        elif kind == 3:
            u, w = 0.0, abs(t)
        try:
            p = MetricParams(t, u, v, w)
            p.K
        except (ValueError, ArithmeticError):
            continue
        points.append(p)
    return points


def test_the_eager_values_are_those_of_the_array_program_bit_for_bit():
    # The sha256 of the eager values of every corpus point that computes, as little-endian float64, and of
    # the indices of those refused (L overflows as 1/t^3 below |t| of about 1e-103), as the stacked numpy
    # program that the scalar program replaced computed them: the same operations in the same order.  The
    # bytes are those of its (N, k) arrays, name by name.  D_alpha and ||L|| are formed in the Q-form, which
    # that program did not use, and are checked against exact values below.
    geos, refused = _geometries(_eager_corpus())
    assert (len(geos), len(refused)) == (2064, 336)
    data = b"".join(np.array(rows, dtype="<f8").tobytes() for rows in zip(*map(_eager, geos)))
    digest = hashlib.sha256(data + np.array(refused, dtype="<i8").tobytes()).hexdigest()
    assert digest == "507284271ae2c0006c086626cac3c76c3621220611f5ff16477757e431d49b7a"


def _swap_points() -> list[MetricParams]:
    """The eager corpus and 2400 seeded points, |t| log-uniform in [1e-100, 1e100], signs mixed: generic, u = 0,
    v = w, 0 < |u| below half an ulp of t^2 (so y1 == y2), and K/|t| down to 1e-8."""
    rng = np.random.default_rng(33)
    points = _eager_corpus()
    while len(points) < 4800:
        t = 10.0 ** rng.uniform(-100.0, 100.0) * rng.choice([-1.0, 1.0])
        u = rng.uniform(-1.99, 1.99) * t * t
        v, w = (t * 10.0 ** rng.uniform(-3.0, 3.0) * rng.choice([-1.0, 1.0]) for _ in range(2))
        kind = rng.integers(5)
        if kind == 1:
            u = 0.0
        elif kind == 2:
            w = v
        elif kind == 3:
            u = t * t * 10.0 ** rng.uniform(-40.0, -16.5) * rng.choice([-1.0, 1.0])
        elif kind == 4:
            k = 10.0 ** rng.uniform(-8.0, 0.0)  # K / |t|
            u = 2.0 * t * t * math.sqrt(1.0 - k * k) * rng.choice([-1.0, 1.0])
        try:
            points.append(MetricParams(t, u, v, w))
        except InvalidParamsError:
            pass
    return points


def _program_or_refusal(p: MetricParams):
    """Both stages of the program at p, the evaluation's four values then the presentation's two, or None where
    either refuses."""
    try:
        return geometry._program(*p.unit_scalars) + geometry._presentation(*p.unit_scalars)
    except DegenerateMetricError:
        return None


def test_negating_u_swaps_the_two_ledger_triples_bit_for_bit(monkeypatch):
    # u -> -u swaps y1 and y2 exactly, so both stages of the program at (t, -u, v, w) are those at (t, u, v, w)
    # with alpha = 1 and 2 swapped, bit for bit: each row is a function of (x_alpha, x_beta) alone, the two r_alpha
    # share their constant, and ||L|| sums the rows in either order.  So where y1 == y2 the row of alpha = 2 is that
    # of alpha = 1, which the evaluation stage forms once.  v <-> w swaps y3 and y4 exactly, and the evaluation stage
    # at (t, u, w, v) is that at (t, u, v, w) with lam_alpha and D_alpha negated and eta_alpha and ||L|| equal, bit
    # for bit, where y3 != y4 (where y3 == y4 the swap is the identity, D_alpha = +-0); the presentation stage is
    # formed at its own y as before, its ratios equal under the swap of the slots e1, e2 to rounding
    assert geometry._HALF_KILLING[0] == geometry._HALF_KILLING[1]
    calls = []
    partials = geometry._partials
    monkeypatch.setattr(geometry, "_partials", lambda *args: calls.append(args) or partials(*args))
    hexes = lambda values: [float.hex(x) for x in values]
    equal_rows = tiny_u = swapped = 0
    for p in _swap_points():
        q = dataclasses.replace(p, u=-p.u)
        e, y = p.unit_scalars
        assert q.unit_scalars == (e, (y[1], y[0], y[2], y[3])), p
        calls.clear()
        got = _program_or_refusal(p)
        if got is None:
            assert _program_or_refusal(q) is _program_or_refusal(dataclasses.replace(p, v=p.w, w=p.v)) is None, p
            continue
        assert len(calls) == (1 if y[0] == y[1] else 2), p
        lam, det, eta, norm, ratios, r = got
        lam2, det2, eta2, norm2, ratios2, r2 = _program_or_refusal(q)
        assert hexes(ratios2) == hexes([ratios[i ^ 1] for i in range(6)]), p  # slot-major: alpha = 1, 2 per slot
        assert hexes(r2) == hexes([r[1], r[0], r[2], r[3]]), p
        assert (hexes(lam2), hexes(det2), hexes(eta2)) == (hexes(lam[::-1]), hexes(det[::-1]), hexes(eta[::-1])), p
        assert norm2.hex() == norm.hex(), p
        s = dataclasses.replace(p, v=p.w, w=p.v)
        assert s.unit_scalars == (e, (y[0], y[1], y[3], y[2])), p
        lam3, det3, eta3, norm3, ratios3, r3 = _program_or_refusal(s)
        negated = (lambda values: values) if y[2] == y[3] else (lambda values: [-x for x in values])
        assert (hexes(lam3), hexes(det3), hexes(eta3)) == (hexes(negated(lam)), hexes(negated(det)), hexes(eta)), p
        assert norm3.hex() == norm.hex() and (ratios3, r3) == geometry._presentation(e, s.unit_scalars[1]), p
        assert all(abs(a - b) <= 2.0**-52 * b for a, b in zip([ratios3[i] for i in (0, 1, 4, 5, 2, 3)], ratios)), p
        swapped += y[2] != y[3]
        if y[0] == y[1]:
            assert hexes(ratios[::2]) == hexes(ratios[1::2]) and r[0].hex() == r[1].hex(), p
            assert (hexes(lam[:1]), hexes(det[:1]), hexes(eta[:1])) == (hexes(lam[1:]), hexes(det[1:]), hexes(eta[1:]))
            equal_rows += 1
            tiny_u += p.u != 0.0
    assert equal_rows >= 1600 and tiny_u >= 450 and swapped >= 3000


def test_each_read_forms_the_presentation_at_most_once(monkeypatch, capsys):
    # a support, its table, the Ricci matrix and max|U| each form the presentation once, whatever they read of it per
    # element, and so does a ``tables`` render, which presents two tables from one read of the ratios; L, its table
    # and maximum, the reduced system and the evaluation read the evaluation stage alone
    geo, presentation, formed = geometry._Geometry(MetricParams(1.0, 0.3, 1.2, 0.8)), geometry._presentation, []
    monkeypatch.setattr(geometry, "_presentation", lambda e, y: formed.append(e) or presentation(e, y))
    reads = [(name, read, name != "ledger") for name in ("c", "u", "n", "ledger")
             for read in (lambda name=name: getattr(geo, name), lambda name=name: geo.table(name))]
    reads += [(name, lambda name=name: getattr(geo, name), count)
              for name, count in (("ricci", 1), ("u_max", 1), ("ledger_max", 0), ("reduced_system", 0))]
    for name, read, count in reads + [("evaluation", geo.evaluation, 0)]:
        formed.clear()
        read()
        assert len(formed) == count, name
    argv = ["tables", "--t", "1", "--u", "0.3", "--v", "1.2", "--w", "0.8"]
    for fmt in ("text", "json"):
        cli._reply.cache_clear()  # a reply kept in the memo forms nothing
        formed.clear()
        assert cli.main([*argv, "--format", fmt]) == 0 and capsys.readouterr().out
        assert len(formed) == 1, fmt


def test_the_presentation_is_finite_in_the_box_where_the_constructor_skips_it():
    # where |e| <= 64 and 2^-100 <= y_k <= 2^100 a geometry is built without forming its presentation, as no ratio
    # or r_k can overflow or be NaN there: at the box's 32 corners and at seeded points inside it each is finite
    rng = np.random.default_rng(46)
    corners = [(e, y) for e in (-64, 64) for y in itertools.product((2.0**-100, 2.0**100), repeat=4)]
    inside = [(int(rng.integers(-64, 65)), tuple(2.0 ** rng.uniform(-100.0, 100.0, 4))) for _ in range(2000)]
    for e, y in corners + inside:
        ratios, r = geometry._presentation(e, y)
        assert all(map(math.isfinite, ratios + r)), (e, y)


def test_the_determinants_and_the_ledger_norm_are_the_q_form_to_rounding():
    # D_alpha = (x4 - x3) (T1 + T2 - T3) / 2 with T1 = (x3 + x4 - x_alpha)^2 / (x3 x4 x_beta),
    # T2 = 8 (x_alpha - x3) (x_alpha - x4) / (x3 x4 x_alpha) and T3 = (x_alpha^2 - x_beta^2) / (x3 x4 x_beta), at 60
    # digits from the program's own y.  The error stays within 4 eps of the sizes of the Q-form's own terms, and
    # ||L|| = sqrt 12 ||lam||, lam = D_alpha / sqrt(x_alpha x3 x4), within 4 eps of the same scale for lam.  Near the
    # K guard with v, w small T1 and T3 cancel, so these sizes exceed |D_alpha| there: up to 974 times the scale
    # sum_k |x_k dD_alpha/dx_k| of its backward error in this corpus (see below).
    geos, _ = _geometries(_eager_corpus())
    eps = 2.0**-52
    with mpmath.workdps(60):
        for geo in geos:
            x1, x2, x3, x4 = map(mpmath.mpf, geo.y)
            lam, lam_scale = [], []
            for (xa, xb), got in zip(((x1, x2), (x2, x1)), geo.det):
                terms = ((x3 + x4 - xa) ** 2 / (x3 * x4 * xb), 8 * (xa - x3) * (xa - x4) / (x3 * x4 * xa),
                         -(xa - xb) * (xa + xb) / (x3 * x4 * xb))
                half = (x4 - x3) / 2
                exact, scale = half * sum(terms), abs(half) * sum(map(abs, terms))
                assert abs(got - exact) <= 4 * eps * scale, (geo.params, got, exact)
                lam.append(exact / mpmath.sqrt(xa * x3 * x4))
                lam_scale.append(scale / mpmath.sqrt(xa * x3 * x4))
            exact, scale = (mpmath.sqrt(12 * (a * a + b * b)) for a, b in (lam, lam_scale))
            assert abs(geo.norm_ledger - exact) <= 4 * eps * scale, geo.params


def test_the_determinants_are_within_400_eps_of_their_backward_error_scale():
    # |D_float - D| <= 400 eps sum_k |x_k dD_alpha/dx_k|, D and its partials at 60 digits from the program's own y:
    # the Q-form's rounding moves eta_alpha by at most 400 eps.  The worst, 333 eps, is near the K guard with
    # v, w small, at (-6.06e133, -7.35e267, 7.00e131, 1.30e132), where T1 and T3 cancel
    geos, _ = _geometries(_eager_corpus())
    eps, worst = 2.0**-52, 0.0
    with mpmath.workdps(60):
        for geo in geos:
            for got, (exact, terms) in zip(geo.det, ledger_determinants(*map(mpmath.mpf, geo.y))):
                worst = max(worst, abs(got - exact) / (eps * sum(map(abs, terms))))
    assert worst <= 400


def test_the_backward_error_is_that_of_60_digits_to_1e_11():
    # eta_alpha from the program against 60-digit eta_alpha of the program's own y, on every geometry of the corpus:
    # within 1e-11 of itself, and exactly 0 where D_alpha = 0 (x3 = x4); never NaN
    geos, _ = _geometries(_eager_corpus())
    zeros = 0
    for geo in geos:
        for got, exact in zip(geo.eta, backward_error(*geo.y)):
            assert got == exact == 0 or abs(got - exact) <= 1e-11 * exact, (geo.params, got, exact)
            zeros += exact == 0
    assert zeros >= 100


def test_max_ledger_is_the_maximum_of_the_table_bit_for_bit():
    # max|L| is read off the table; the oracle's closed form over the adapted triples forms each entry as the
    # table does, so the two agree exactly, the exact zeros of u = 0, w = |t| and v = w included
    points = _eager_corpus()[::8] + [MetricParams(1.0, 0.0, 1.0, 1.0), MetricParams(1.0, 0.7, 1.3, 1.3)]
    points += [sol.params for s in (1.5, 5.0, 8.9) for sol in solve_ledger_u0(s)]
    points += [sol.params for s in (0.4, 1.0, 1.43) for sol in solve_ledger_unonzero(s)]
    geos, _ = _geometries(points)
    table_max = [float(np.abs(geo.table("ledger")).max()) for geo in geos]
    assert np.array_equal([geo.ledger_max for geo in geos], table_max)
    closed = [closed_ledger_max(*geo._cos_sin, *geo.lam) for geo in geos]
    assert [float.hex(geo.ledger_max) for geo in geos] == list(map(float.hex, closed))
    assert table_max.count(0.0) >= 50


def test_max_u_and_its_witness_are_the_first_maximum_of_the_table():
    # one argmax per geometry, cached with the point: the first maximal (i, j, k) in np.argmax's order,
    # which the symmetry of U in (i, j) makes a choice between ties
    rng = np.random.default_rng(65)
    for p in [sample_params(rng) for _ in range(500)] + [MetricParams(1.0, 0.0, 1.0, 1.0)]:
        table = np.abs(u_table(p))
        i, j, k = np.unravel_index(np.argmax(table), (8, 8, 8))
        report = analysis.is_naturally_reductive(p)
        assert report.max_coefficient == table.max() == table[i, j, k], p
        assert geometry._cached_geometry(p).u_max == (table.max(), (i, j, k)), p
        witness = (FRAME_NAMES[i], FRAME_NAMES[j], FRAME_NAMES[k])
        assert report.witness == (None if report.naturally_reductive else witness), p
    assert analysis.is_naturally_reductive(MetricParams(1.0, 0.0, 1.0, 1.0)).naturally_reductive


@pytest.mark.parametrize("p,message", [
    (MetricParams(1.0, 2.0, 1.0, 1.0), "below guard"),  # u = 2t^2: the K guard
    (MetricParams(1.0, 0.0, 1e150, 1.0), "the curvature tensors overflow at this scale"),
])
def test_a_refused_point_leaves_no_cache_entry(p, message):
    geometry._cached_geometry.cache_clear()
    ricci(build_form(MetricParams(1.0, 0.5, 1.2, 0.8)))
    errors = []
    for _ in range(2):
        with pytest.raises(DegenerateMetricError, match=message) as refused:
            analysis.first_ledger_verdict(p)
        assert geometry._cached_geometry.cache_info().currsize == 1, p
        errors.append(str(refused.value))
    assert errors[0] == errors[1]


# ----------------------------------------------------------------------
# metamorphic relations
# ----------------------------------------------------------------------

def _homothety(p: MetricParams, lam: float) -> MetricParams:
    return MetricParams(lam * p.t, lam * lam * p.u, lam * p.v, lam * p.w)


_sign = st.sampled_from((1.0, -1.0))


@st.composite
def _points(draw) -> MetricParams:
    """Admissible points of four kinds: random, either solver's solutions, the v = w family, the round point."""
    kind = draw(st.sampled_from(("random", "u0", "u1", "v=w", "round")))
    t = draw(st.floats(0.5, 2.0))
    if kind == "random":
        v, w = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
        p = MetricParams(1.0, draw(st.floats(-1.8, 1.8)), v / t, w / t)
    elif kind == "u0":
        p = solve_ledger_u0(draw(st.floats(1.01, 8.99)))[draw(st.integers(0, 1))].params
    elif kind == "u1":
        p = solve_ledger_unonzero(draw(st.floats(0.34, 1.43)))[draw(st.integers(0, 3))].params
    elif kind == "v=w":
        v = draw(st.floats(0.3, 3.0))
        p = MetricParams(1.0, draw(st.floats(-1.8, 1.8)), v, v)
    else:
        p = MetricParams(1.0, 0.0, 1.0, 1.0)
    p = _homothety(p, t)
    return MetricParams(draw(_sign) * p.t, p.u, draw(_sign) * p.v, draw(_sign) * p.w)


@settings(max_examples=300, deadline=None)
@given(_points(), st.floats(-3.0, 3.0))
def test_homothety_sign_and_swap_maps_preserve_the_geometry(p, log_lam):
    # (t,u,v,w) -> (l t, l^2 u, l v, l w) scales C and U as 1/l, rho as
    # 1/l^2 and L as 1/l^3; u -> -u, v <-> w and t -> -t change none of them
    lam = 10.0 ** log_lam
    images = [
        (_homothety(p, lam), lam),
        (MetricParams(p.t, -p.u, p.v, p.w), 1.0),
        (MetricParams(p.t, p.u, p.w, p.v), 1.0),
        (MetricParams(-p.t, p.u, p.v, p.w), 1.0),
    ]
    geo = geometry._Geometry(p)
    spectrum = np.linalg.eigvalsh(geo.ricci)
    max_c, max_u, max_l, max_n, max_rho = (np.abs(a).max() for a in (geo.c, geo.u, geo.ledger, geo.n, geo.r))
    verdicts = geo.equal("1234", DEFAULT_TOL), len(geo.isometries(DEFAULT_TOL)), geo.evaluation()[2] <= DEFAULT_TOL
    for q, lam in images:
        image = geometry._Geometry(q)
        got = np.linalg.eigvalsh(image.ricci) * lam**2
        assert np.max(np.abs(got - spectrum)) <= 1e-12 * np.max(np.abs(spectrum))
        assert abs(np.abs(image.c).max() * lam - max_c) <= 1e-12 * max_c
        assert abs(np.abs(image.u).max() * lam - max_u) <= 1e-12 * max_c
        assert abs(np.abs(image.ledger).max() * lam**3 - max_l) <= 1e-12 * max_n * max_rho
        assert (image.equal("1234", DEFAULT_TOL), len(image.isometries(DEFAULT_TOL)),
                image.evaluation()[2] <= DEFAULT_TOL) == verdicts


# ----------------------------------------------------------------------
# accuracy against 50-digit values of the closed forms
# ----------------------------------------------------------------------

@pytest.mark.parametrize("v,w", [(1.3, 0.8), (1.0, 1.0), (2.0, 0.5), (0.9, 1.1)])
def test_ricci_eigenvalues_keep_full_precision_up_to_the_k_guard(v, w):
    # the four r_k of the root frame against F1's closed forms, at (v, w) t
    # where none of them cancels: no loss grows with t/K
    rng = np.random.default_rng(43)
    eps = np.finfo(float).eps
    for k_ratio in np.logspace(-2, -8, 13):
        t = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        p = MetricParams(t, 2.0 * t * t * np.sqrt(1.0 - k_ratio**2) * rng.choice([-1.0, 1.0]), v * t, w * t)
        exact = exact_point(p)
        with mpmath.workdps(50):
            ref = expected_root_ricci(exact.t**2 + exact.u / 2, exact.t**2 - exact.u / 2, exact.v**2, exact.w**2)
            for got, r in zip(geometry._cached_geometry(p).r, ref):
                assert abs(got - r) <= 8 * eps * abs(r), (p, k_ratio)


@pytest.mark.parametrize("t", [1.0, 1.37, -0.6])
def test_ledger_keeps_full_precision_where_u_is_0_and_w_is_t(t):
    # L depends only on r11 - r77 there, a difference of order v^2 of two
    # Ricci entries near 3 / t^2; the determinant's closed form keeps it
    for v in (1e-3, 1e-2, 1e-5):
        p = MetricParams(t, 0.0, v * t, t)
        with mpmath.workdps(50):
            ref = float(np.max(np.abs(expected_ledger_table(exact_point(p), mpmath.sqrt))))
        assert abs(np.max(np.abs(ledger_table(p))) - ref) <= 1e-12 * ref, p


def test_bare_gram_matches_params_form():
    # a bare Gram matrix takes the frame of (|t|, u, |v|, |w|), which differs from
    # the adapted frame by signs at negative t and v; the raw-vector results must not
    p = MetricParams(-1.3, 0.9, -0.8, 1.6)
    form = build_form(p)
    bare = AdaptedForm(gram=form.gram)
    rng = np.random.default_rng(36)
    for _ in range(5):
        x, y, z = (rng.standard_normal(8) for _ in range(3))
        for op, args in ((u_map, (x, y)), (nabla, (x, y)), (curvature, (x, y, z)), (ledger, (x, y, z))):
            ref = op(*args, form)
            assert np.max(np.abs(op(*args, bare) - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref)))), op


def _form_results(form, x, y, z):
    return [u_map(x, y, form), nabla(x, y, form), curvature(x, y, z, form), ricci(form), ledger(x, y, z, form)]


def test_bare_gram_is_read_as_its_parameters():
    # an invariant Gram is that of (|t|, u, |v|, |w|), read in closed form
    # from g00, g30, g44, g66: the bare form computes one geometry, answers its
    # later queries from the cache, and that entry is the point's own
    rng = np.random.default_rng(38)
    x, y, z = (rng.standard_normal(8) for _ in range(3))
    for st, sv, sw in itertools.product((1.0, -1.0), repeat=3):
        p = MetricParams(1.3 * st, 0.9, 0.8 * sv, 1.6 * sw)
        geometry._cached_geometry.cache_clear()
        got = _form_results(AdaptedForm(gram=build_form(p).gram), x, y, z)
        info = geometry._cached_geometry.cache_info()
        assert (info.misses, info.hits) == (1, 4), p
        ref = _form_results(build_form(MetricParams(abs(p.t), p.u, abs(p.v), abs(p.w))), x, y, z)
        assert geometry._cached_geometry.cache_info().misses == 1, p
        for a, b in zip(got, ref):
            assert np.array_equal(a, b), p


def test_bare_gram_hits_the_entry_of_its_params():
    rng = np.random.default_rng(39)
    for _ in range(500):
        p = sample_params(rng)
        geometry._cached_geometry.cache_clear()
        ricci(build_form(p))
        ricci(AdaptedForm(gram=build_form(p).gram))
        info = geometry._cached_geometry.cache_info()
        assert (info.misses, info.hits) == (1, 1), p


def test_bare_gram_whose_u_overflows_is_degenerate():
    # positive-definite, finite and invariant, but u = 2 g30 is beyond the floats
    g = build_form(MetricParams(1.0, 1.8, 1.0, 1.0)).gram * 1e308
    with pytest.raises(DegenerateMetricError, match="overflows"):
        ricci(AdaptedForm(gram=g))


def test_bare_gram_read_past_the_boundary_is_degenerate():
    # positive-definite and invariant within tolerance, as g33 = g00 (1 + 1e-10), but its smallest
    # eigenvalue is 3e-11 of g00 and u = 2 g30 > 2 L00^2: the reading lands past |u| = 2t^2
    a, c = 1.7, 1.7 * (1 + 2e-11)
    g = np.eye(8)
    g[:4, :4] = [[a, 0, 0, c], [0, a, -c, 0], [0, -c, a * (1 + 1e-10), 0], [c, 0, 0, a * (1 + 1e-10)]]
    with pytest.raises(DegenerateMetricError, match="^Gram matrix too close to the degenerate boundary: u must"):
        ricci(AdaptedForm(gram=g))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g00", [np.inf, np.nan])
def test_bare_gram_that_is_not_finite_is_degenerate(g00):
    # the first check of a bare Gram: a matrix with an entry that is not finite is refused before any other
    g = np.eye(8)
    g[0, 0] = g00
    with pytest.raises(DegenerateMetricError, match="^Gram matrix is not finite$"):
        ricci(AdaptedForm(gram=g))


def test_bare_gram_must_be_adh_invariant():
    # positive-definite but not ad(h)-invariant, so not of the adapted pattern: the invariant-connection
    # formulas do not hold for it, so every operation refuses it
    rng = np.random.default_rng(37)
    a = rng.standard_normal((8, 8))
    bad = AdaptedForm(gram=a @ a.T + 8 * np.eye(8))
    x, y, z = np.eye(8)[:3]
    calls = (
        lambda: u_map(x, y, bad),
        lambda: nabla(x, y, bad),
        lambda: curvature(x, y, z, bad),
        lambda: ricci(bad),
        lambda: ledger(x, y, z, bad),
    )
    for call in calls:
        with pytest.raises(InvalidParamsError, match=r"^Gram matrix is not adapted: g\[A3, A3\] is 9.94 off"):
            call()
    # the Gram matrices of build_form pass at every sign of t, v and w
    for st, sv, sw in itertools.product((1.0, -1.0), repeat=3):
        form = build_form(MetricParams(1.3 * st, 0.9, 0.8 * sv, 1.6 * sw))
        bare = AdaptedForm(gram=form.gram)
        for op, args in ((u_map, (x, y)), (curvature, (x, y, z))):
            ref = op(*args, form)
            assert np.max(np.abs(op(*args, bare) - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def test_bare_gram_is_read_within_the_tolerance_of_its_pattern():
    # every entry but the four it is read from (g00, g30, g44, g66) moved by 1e-13 max|g|: admitted, and read as the
    # point of build_form, bit for bit; moved by 1e-6 max|g|, any entry is refused, the others by their own name
    form = build_form(MetricParams(1.3, 0.9, 0.8, 1.6))
    x, y, z = np.random.default_rng(44).standard_normal((3, 8))
    ref = _form_results(form, x, y, z)
    names = "A1 A2 A3 A4 B1 B2 C1 C2".split()
    for i, j in itertools.product(range(8), repeat=2):
        for step in (1e-13, 1e-6):
            g = form.gram.copy()
            g[i, j] += step * np.max(np.abs(g))
            if step == 1e-6:
                with pytest.raises(InvalidParamsError, match="^Gram matrix is not adapted: ") as refused:
                    ricci(AdaptedForm(gram=g))
                assert (i, j) in ((0, 0), (3, 0), (4, 4), (6, 6)) or f"g[{names[i]}, {names[j]}]" in str(refused.value)
            elif (i, j) not in ((0, 0), (3, 0), (4, 4), (6, 6)):
                for a, b in zip(_form_results(AdaptedForm(gram=g), x, y, z), ref):
                    assert np.array_equal(a, b), (i, j)


def _invariant_gram(g00: float, g30: float) -> np.ndarray:
    """The ad(h)-invariant Gram matrix with g00 = t^2 and g30 = u/2 and v = w = 1, whatever its signature."""
    g = np.eye(8)
    g[:4, :4] = [[g00, 0, 0, g30], [0, g00, -g30, 0], [0, -g30, g00, 0], [g30, 0, 0, g00]]
    return g


def _with(g: np.ndarray, **entries: float) -> np.ndarray:
    """A copy of g with the entries named gij set, the matrix kept symmetric."""
    g = g.copy()
    for name, value in entries.items():
        g[int(name[1]), int(name[2])] = g[int(name[2]), int(name[1])] = value
    return g


@pytest.fixture
def no_lapack(monkeypatch):
    """Every function of np.linalg raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)


def test_bare_gram_reads_the_parameters_of_its_cholesky_factor_bit_for_bit(monkeypatch):
    # (sqrt g00, 2 g30, sqrt g44, sqrt g66) is (L00, 2 g30, L44, L66): L00 is the same rounded square root,
    # L44 = sqrt(g44 - 0), and sqrt(fl(t^2)) = |t|, so a build_form Gram is read as (|t|, u, |v|, |w|) exactly
    monkeypatch.setattr(geometry, "_cached_geometry", lambda p: p)  # the point _geometry reads, not its geometry
    signs = itertools.product((1.0, -1.0), repeat=3)
    points = [MetricParams(1.3 * st, 0.9, 0.8 * sv, 1.6 * sw) for st, sv, sw in signs]
    points += _eager_corpus()[::2] + [MetricParams(1.190614449268857, 2.8351255336155674, 1.0, 1.0)]  # K/|t| = 1.27e-8
    factored = 0
    for p in points:
        gram = build_form(p).gram
        read = [x.hex() for x in dataclasses.astuple(geometry._geometry(AdaptedForm(gram=gram)))]
        assert read == [abs(p.t).hex(), p.u.hex(), abs(p.v).hex(), abs(p.w).hex()], p
        try:
            factor = cholesky_params(gram)
        except np.linalg.LinAlgError:  # K^2 = g33 - g30^2 / g00 cancels below the rounding of t^2, so
            assert math.sqrt(k_squared(p)) < 2e-8 * abs(p.t), p  # the factorization refused the point
            continue
        assert read == [x.hex() for x in dataclasses.astuple(factor)], p
        factored += 1
    assert factored >= len(points) - 20


def test_every_bare_gram_operation_answers_without_lapack(no_lapack):
    p = MetricParams(1.3, 0.9, 0.8, 1.6)
    form = build_form(p)
    rng = np.random.default_rng(40)
    x, y, z = (rng.standard_normal(8) for _ in range(3))
    ref = _form_results(form, x, y, z)
    geometry._cached_geometry.cache_clear()
    got = _form_results(AdaptedForm(gram=form.gram), x, y, z)
    assert geometry._cached_geometry.cache_info().misses == 1
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("gram,error,message", [
    (_with(np.eye(8), g00=np.inf), DegenerateMetricError, "Gram matrix is not finite"),
    (_with(np.eye(8), g03=np.nan), DegenerateMetricError, "Gram matrix is not finite"),
    (np.diag([1.0, 1, 1, -1, 1, 1, 1, 1]), DegenerateMetricError,
     "Gram matrix is not positive-definite: its diagonal has -1"),
    (np.diag([1.0, 1, 1, 1, 1, 1, 0, 0]), DegenerateMetricError,
     "Gram matrix is not positive-definite: its diagonal has 0"),
    # an antisymmetric part that commutes with ad(h) would pass an invariance check; it is off the adapted pattern
    (np.eye(8) + np.diag([0, 0, 0, 0, 5.0, 0, 0], k=1) - np.diag([0, 0, 0, 0, 5.0, 0, 0], k=-1), InvalidParamsError,
     "Gram matrix is not adapted: g[B1, B2] is 5 off its adapted value"),
    (_with(np.eye(8), g04=0.1), InvalidParamsError,
     "Gram matrix is not adapted: g[A1, B1] is 0.1 off its adapted value"),
    # indefinite, of positive diagonal and not invariant: the pattern test refuses it
    (_with(np.eye(8), g01=2.0), InvalidParamsError, "Gram matrix is not adapted: g[A1, A2] is 2 off its adapted value"),
    # neither symmetric nor of positive diagonal: the diagonal is tested first
    (np.diag([1.0, 1, 1, 1, 1, 1, 1, -1]) + np.diag([0, 0, 0, 0, 5.0, 0, 0], k=1), DegenerateMetricError,
     "Gram matrix is not positive-definite: its diagonal has -1"),
    (build_form(MetricParams(1.0, 1.8, 1.0, 1.0)).gram * 1e308, DegenerateMetricError,
     "u = 2 g30 = 2 * 9e+307 overflows"),
    # invariant within tolerance, as g33 = g00 (1 + 1e-10), and read past |u| = 2 g00
    (_with(_invariant_gram(1.7, 1.7 * (1 + 2e-11)), g22=1.7 * (1 + 1e-10), g33=1.7 * (1 + 1e-10)),
     DegenerateMetricError, "Gram matrix too close to the degenerate boundary: u must lie in the open interval "
                            "(-2t^2, 2t^2) = (-3.4, 3.4), got 3.4"),
    # invariant and indefinite, |u| > 2t^2: the reading's own guard refuses it
    (_invariant_gram(1.0, 1.5), DegenerateMetricError, "Gram matrix too close to the degenerate boundary: u must lie "
                                                       "in the open interval (-2t^2, 2t^2) = (-2, 2), got 3"),
    # invariant and singular, |u| = 2t^2: the K guard refuses it
    (_invariant_gram(1.0, -1.0), DegenerateMetricError,
     "K^2 = 0 below guard 1e-16: |u| too close to the degenerate boundary"),
], ids=["inf", "nan", "negative diagonal", "zero diagonal", "not symmetric", "not invariant",
        "indefinite, not invariant", "not symmetric, negative diagonal", "u overflows", "past the boundary",
        "invariant indefinite", "invariant singular"])
def test_each_bare_gram_refusal_names_its_reason(no_lapack, gram, error, message):
    x, y, z = np.eye(8)[:3]
    for call in (lambda f: u_map(x, y, f), lambda f: nabla(x, y, f), lambda f: curvature(x, y, z, f), ricci,
                 lambda f: ledger(x, y, z, f)):
        with pytest.raises(error) as refused:
            call(AdaptedForm(gram=gram))
        assert str(refused.value) == message


def test_only_build_form_attaches_params():
    # the geometry is cached by a form's params, so params that do not
    # describe the Gram matrix would silently stand in for it
    with pytest.raises(TypeError):
        ricci(AdaptedForm(gram=np.eye(8), params=MetricParams(1, 0.5, 2, 3)))
    bare = AdaptedForm(gram=np.eye(8))
    assert bare.params is None
    assert np.max(np.abs(ricci(bare) - ricci(build_form(MetricParams(1, 0, 1, 1))))) <= 1e-15
    p = MetricParams(1, 0.5, 2, 3)
    assert build_form(p).params == p


def test_import_loads_neither_scipy_nor_sympy():
    src = str(Path(zksym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, zksym; sys.exit('scipy' in sys.modules or 'sympy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_an_evaluation_is_bit_identical_under_each_sign_flip_and_under_v_w():
    # (t, u, v, w) -> (-t, u, v, w), (t, -u, v, w), (t, u, -v, w), (t, u, v, -w) or (t, u, w, v): the same repr of
    # the evaluation.  -t, -v and -w leave y = x / 4^e unchanged; -u swaps y1 and y2, and every formula reads them
    # symmetrically; v <-> w swaps y3 and y4, and the program evaluates at y3 <= y4 and negates D_alpha, whose
    # magnitude alone the evaluation reads.  So the four solutions of solve_ledger_unonzero at one S, a Weyl orbit,
    # evaluate alike.
    def evaluation(t, u, v, w):
        return repr(geometry._Geometry(MetricParams(t, u, v, w)).evaluation())

    rng = np.random.default_rng(39)
    t = rng.choice([-1.0, 1.0], 4000) * rng.uniform(0.5, 2.0, 4000)
    points = np.column_stack([t, rng.uniform(-1.8, 1.8, 4000) * t * t, rng.uniform(0.3, 3.0, (4000, 2))]).tolist()
    lo, hi = analysis.S_INTERVAL_UNONZERO
    sols = solve_ledger_unonzero(*np.linspace(lo, hi, 1002)[1:-1].tolist())
    points += [list(dataclasses.astuple(sol.params)) for sol in sols[::2]]
    swapped = 0
    for point in points:
        expected = evaluation(*point)
        for k in range(4):
            flipped = list(point)
            flipped[k] = -flipped[k]
            assert evaluation(*flipped) == expected, (point, k)
        t, u, v, w = point
        swapped += evaluation(t, u, w, v) != expected
    for orbit in zip(*(sols[k::4] for k in range(4))):  # the solver's orbits: (V, W) at +-u, then (W, V)
        params = [dataclasses.astuple(sol.params) for sol in orbit]
        assert [(t, abs(u), *sorted((v, w))) for t, u, v, w in params] == [params[2]] * 4
        assert {evaluation(*point) for point in params} == {evaluation(*params[0])}
    assert swapped == 0


def test_a_points_geometry_holds_python_numbers_only(monkeypatch):
    # the raw-vector functions form the frames E and E^-1 on each call, and every other call forms the tables,
    # maxima, Ricci matrix or reduced system it reads: after every public geometry and analysis function has run at
    # one point, through build_form and through a bare Gram matrix (whose parameters are the same point), its cached
    # geometry holds exactly its params, e, y and the four outputs of _program, its evaluation stage, as Python
    # numbers only: each read of its evaluation forms it anew, with no Gram defect, which only a record's residuals
    # report, and each read of its presentation stage, the ratios and r, forms that anew
    sol = solve_ledger_unonzero(1.0)[0]
    p = sol.params
    x, y, z = np.random.default_rng(42).standard_normal((3, 8))
    m_bracket(x, y)
    for form in (build_form(p), AdaptedForm(gram=np.array(build_form(p).gram))):
        u_map(x, y, form), nabla(x, y, form), curvature(x, y, z, form), ledger(x, y, z, form), ricci(form)
    for table in (bracket_table, u_table, nomizu_table, ledger_table):
        table(p)
    for check in (analysis.first_ledger_verdict, analysis.infinitesimal_isometries, analysis.is_naturally_reductive,
                  analysis.ledger_system_residuals):
        check(p)
    solve_ledger_u0(5.0), analysis.verify_solution(sol)
    geo, presentation = geometry._cached_geometry(p), geometry._presentation
    assert geometry._geometry(AdaptedForm(gram=np.array(build_form(p).gram))) is geo
    assert set(vars(geo)) == {"params", "e", "y", "lam", "det", "eta", "norm_ledger"}
    presented = []
    monkeypatch.setattr(geometry, "_presentation", lambda e, y: presented.append(e) or presentation(e, y))
    assert (geo.ratios, geo.r) == presentation(geo.e, geo.y) and presented == [geo.e] * 2
    formed = []
    monkeypatch.setattr(geometry, "_ldexp", lambda x, n: formed.append(x) or math.ldexp(x, n))
    assert geo.evaluation() == geo.evaluation() and formed == [geo.norm_ledger] * 2
    assert len(geo.evaluation()) == 4 and not hasattr(geometry, "_gram_defect")

    def leaves(value):
        return [leaf for item in value for leaf in leaves(item)] if isinstance(value, (list, tuple)) else [value]

    assert {type(leaf) for leaf in leaves(list(vars(geo).values()))} <= {float, int, bool, MetricParams}


def test_a_raw_vector_call_forms_each_frame_once(monkeypatch):
    # E^-1 and E are each formed from np.sqrt of the point's unit-scale x: once each per call, however often
    # curvature applies nabla, and ledger, whose result is a number, forms E^-1 only
    p = MetricParams(1.2, 0.9, 0.7, 1.5)
    x, y, z = np.random.default_rng(7).standard_normal((3, 8))
    sqrt, calls = np.sqrt, []

    def counting(a, *args, **kwargs):
        calls.append(a is unit_x)
        return sqrt(a, *args, **kwargs)

    for form in (build_form(p), AdaptedForm(gram=np.array(build_form(p).gram))):
        unit_x = geometry._geometry(form).y
        for call, frames in ((lambda: curvature(x, y, z, form), 2), (lambda: ledger(x, y, z, form), 1),
                             (lambda: u_map(x, y, form), 2), (lambda: nabla(x, y, form), 2)):
            expected = call()
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np, "sqrt", counting)
                assert np.array_equal(call(), expected)
            assert sum(calls) == frames


_X = np.arange(8.0)


@pytest.mark.parametrize("call,message", [
    (lambda form: u_map(np.zeros(7), _X, form), "m-vector must have shape (8,), got (7,)"),
    (lambda form: m_bracket(_X, np.zeros((8, 1))), "m-vector must have shape (8,), got (8, 1)"),
    (lambda form: curvature(_X, _X, np.zeros(9), form), "m-vector must have shape (8,), got (9,)"),
    (lambda form: ledger(_X, _X, [1, 2], form), "m-vector must have shape (8,), got (2,)"),
    # every array the library takes is admitted by one function, metric._array, with the message of its kind
    (lambda form: curvature(_X, np.zeros(10), _X, form), "m-vector must have shape (8,), got (10,)"),
    (lambda form: build_so5().bracket(np.zeros(10), np.zeros(8)), "vector must have shape (10,), got (8,)"),
    (lambda form: zksym.matrix_of(np.zeros((2, 5))), "so(5) vector must have shape (10,), got (2, 5)"),
    (lambda form: zksym.vector_of(np.zeros((3, 3))), "so(5) matrix must have shape (5, 5), got (3, 3)"),
    (lambda form: AdaptedForm(np.zeros((3, 3))), "gram matrix must have shape (8, 8), got (3, 3)"),
    (lambda form: zksym.OrthonormalFrame(np.zeros((3, 3))), "frame matrix must have shape (8, 8), got (3, 3)"),
    (lambda form: zksym.GradedLieAlgebra("hm", np.zeros((2, 2)), [zksym.GradingLabel((b,)) for b in (False, True)]),
     "structure tensor must have shape (2, 2, 2), got (2, 2)"),
], ids=["u_map", "m_bracket", "curvature", "ledger", "curvature h", "bracket", "matrix_of", "vector_of",
        "AdaptedForm", "OrthonormalFrame", "GradedLieAlgebra"])
def test_a_raw_vector_of_another_shape_is_refused(call, message):
    with pytest.raises(ValueError) as refusal:
        call(build_form(NR_PARAMS))
    assert str(refusal.value) == message


def test_a_record_keeps_a_read_only_copy_of_its_array():
    # a form, a frame and an algebra keep their own array: the caller's, mutated after, changes none of them
    gram, frame, structure = np.array(build_form(NR_PARAMS).gram), np.eye(8), np.array(build_so5().structure)
    kept = [AdaptedForm(gram).gram, zksym.OrthonormalFrame(frame).matrix,
            zksym.GradedLieAlgebra(build_so5().names, structure, build_so5().grading).structure]
    expected = [a.copy() for a in kept]
    for given in (gram, frame, structure):
        given[(0,) * given.ndim] = 7.0
    for array, before in zip(kept, expected):
        assert not array.flags.writeable
        assert np.array_equal(array, before)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 7.0
