import itertools
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import zksym
from zksym import (
    AdaptedForm,
    DegenerateMetricError,
    InvalidParamsError,
    MetricParams,
    bracket_table,
    build_form,
    curvature,
    geometry,
    ledger,
    ledger_table,
    m_bracket,
    nabla,
    nomizu_table,
    orthonormal_frame,
    ricci,
    u_map,
    u_table,
)

from oracles import (
    exact_point,
    expected_bracket_table,
    expected_ledger_table,
    expected_ricci_entries,
    expected_ricci_matrix,
    expected_root_ricci,
    expected_u_table,
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
    assert np.array_equal(geometry._KILLING_M, -6 * np.eye(8))


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
            for got, r in zip(geometry._cached_geometry(p).r[0], ref):
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
    # an invariant Gram is that of (|t|, u, |v|, |w|), whose closed frame is
    # its Cholesky frame: the bare form computes one geometry, answers its
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
    # the Cholesky factorization passes such a matrix through without an error; its factor is not finite
    g = np.eye(8)
    g[0, 0] = g00
    with pytest.raises(DegenerateMetricError, match="^Gram matrix is not finite$"):
        ricci(AdaptedForm(gram=g))


def test_bare_gram_must_be_adh_invariant():
    # positive-definite but not ad(h)-invariant: the invariant-connection
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
        with pytest.raises(InvalidParamsError, match=r"not ad\(h\)-invariant"):
            call()
    # the Gram matrices of build_form pass at every sign of t, v and w
    for st, sv, sw in itertools.product((1.0, -1.0), repeat=3):
        form = build_form(MetricParams(1.3 * st, 0.9, 0.8 * sv, 1.6 * sw))
        bare = AdaptedForm(gram=form.gram)
        for op, args in ((u_map, (x, y)), (curvature, (x, y, z))):
            ref = op(*args, form)
            assert np.max(np.abs(op(*args, bare) - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


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
