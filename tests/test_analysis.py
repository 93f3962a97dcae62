import dataclasses
import inspect
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from zksym import (
    DEFAULT_TOL,
    DegenerateMetricError,
    InvalidParamsError,
    LedgerSolution,
    MetricParams,
    S_INTERVAL_U0,
    S_INTERVAL_UNONZERO,
    analysis,
    first_ledger_verdict,
    infinitesimal_isometries,
    is_naturally_reductive,
    ledger_system_residuals,
    ledger_table,
    nomizu_table,
    orthonormal_frame,
    ricci,
    solve_ledger_u0,
    solve_ledger_unonzero,
    u_map,
    build_form,
    geometry,
    verify_solution,
)

from oracles import expected_reduced_terms, expected_ricci_entries, exact_point, sample_params, unonzero_closed_form_v2


# ----------------------------------------------------------------------
# naturally reductive predicate
# ----------------------------------------------------------------------

def test_nr_at_round_point():
    report = is_naturally_reductive(MetricParams(1, 0, 1, 1))
    assert report.naturally_reductive
    assert report.witness is None
    assert bool(report)


def test_not_nr_when_scales_differ():
    p = MetricParams(1, 0, 1, 2)
    report = is_naturally_reductive(p)
    assert not report.naturally_reductive
    assert report.max_coefficient == pytest.approx(0.75, rel=1e-14)
    # the witness names a frame triple realizing the maximal U coefficient
    f = orthonormal_frame(p)
    x, y, z = (f.vector(n) for n in report.witness)
    val = u_map(x, y, build_form(p)) @ build_form(p).gram @ z
    assert abs(val) == pytest.approx(report.max_coefficient, rel=1e-14)


def test_not_nr_when_u_nonzero():
    assert not is_naturally_reductive(MetricParams(1, 0.5, 1, 1))


def test_nr_equivalent_to_closed_form_criterion():
    rng = np.random.default_rng(41)
    tol = 1e-9
    for _ in range(100):
        p = sample_params(rng)
        via_u = is_naturally_reductive(p, tol).naturally_reductive
        closed = (
            abs(p.u) <= tol
            and abs(p.t**2 - p.v**2) <= tol
            and abs(p.t**2 - p.w**2) <= tol
        )
        assert via_u == closed


# ----------------------------------------------------------------------
# infinitesimal isometries
# ----------------------------------------------------------------------

CASES = [
    ((1, 0, 1, 2), 2, (6, 7)),        # t^2 = v^2: span of the C frame vectors
    ((1, 0, 2, 1), 2, (4, 5)),        # t^2 = w^2: span of the B frame vectors
    ((1, 0, 2, 2), 4, (0, 1, 2, 3)),  # v^2 = w^2, u = 0: span of the A frame vectors
    ((1, 0.5, 2, 2), 4, (0, 1, 2, 3)),  # v^2 = w^2, u != 0
    ((1, 0.5, 1, 2), 0, ()),          # v^2 != w^2, u != 0
    ((1, 0, 1.3, 1.7), 0, ()),        # u = 0, all scales distinct
    ((1, 0, 1, 1), 8, tuple(range(8))),  # fully invariant form
]


@pytest.mark.parametrize("params,dim,span", CASES)
def test_isometry_dimensions_and_spans(params, dim, span):
    basis = infinitesimal_isometries(MetricParams(*params))
    assert basis.shape == (8, dim)
    if dim:
        # orthonormal columns contained in the expected coordinate span
        assert np.allclose(basis.T @ basis, np.eye(dim), atol=1e-12)
        outside = np.delete(basis, list(span), axis=0)
        if outside.size:
            assert np.max(np.abs(outside)) < 1e-9


def test_isometry_solutions_satisfy_the_defining_equation():
    p = MetricParams(1, 0.5, 2, 2)
    g = build_form(p).gram
    f = orthonormal_frame(p).matrix
    from zksym import m_bracket

    basis = infinitesimal_isometries(p)
    for col in basis.T:
        x = f @ col  # raw coordinates
        for i in range(8):
            for j in range(8):
                y, z = f[:, i], f[:, j]
                val = m_bracket(x, y) @ g @ z + y @ g @ m_bracket(x, z)
                assert abs(val) < 1e-9


def _fresh_isometries(p: MetricParams, tol: float) -> np.ndarray:
    """The isometry basis with its own SVD of U's rows on the frame pairs i <= j, as each query once formed it."""
    _, s, vh = np.linalg.svd(geometry.u_table(p)[np.triu_indices(8)])
    cutoff = tol * (s[0] if s.size and s[0] > 0 else 1.0)
    return vh[int(np.sum(s > cutoff)):].T.copy()


def test_a_cached_point_answers_isometry_queries_without_a_new_svd(monkeypatch):
    p = MetricParams(1.0, 0.5, 2.0, 2.0)
    geometry._cached_geometry.cache_clear()
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    first = infinitesimal_isometries(p)
    assert len(calls) == 1
    first[:] = 7.0  # the caller's array, not the cache's
    again, coarse = infinitesimal_isometries(p), infinitesimal_isometries(p, 0.5)
    assert len(calls) == 1
    assert not geometry._cached_geometry(p).u_svd[1].flags.writeable
    monkeypatch.undo()
    assert again.tobytes() == _fresh_isometries(p, DEFAULT_TOL).tobytes() and again.shape == (8, 4)
    assert coarse.tobytes() == _fresh_isometries(p, 0.5).tobytes()


def test_the_cached_svd_gives_each_tolerance_what_a_fresh_one_gives():
    rng = np.random.default_rng(18)
    points = [MetricParams(*params) for params, _, _ in CASES] + [sample_params(rng) for _ in range(40)]
    dims = set()
    for p in points:
        for tol in (DEFAULT_TOL, 0.5):
            got, want = infinitesimal_isometries(p, tol), _fresh_isometries(p, tol)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (p, tol)
            dims.add((tol, got.shape[1]))
    assert {d for tol, d in dims if tol == 0.5} != {d for tol, d in dims if tol == DEFAULT_TOL}  # the cut moves


# ----------------------------------------------------------------------
# reduced system of the first Ledger condition
# ----------------------------------------------------------------------

def test_reduced_system_zero_at_round_point():
    assert np.max(np.abs(ledger_system_residuals(MetricParams(1, 0, 1, 1)))) < 1e-13


def test_reduced_system_zero_whenever_v_equals_w():
    rng = np.random.default_rng(42)
    for _ in range(10):
        while True:
            t, v = rng.uniform(0.5, 2.0, 2)
            u = rng.uniform(-1.9, 1.9) * t * t
            p = MetricParams(t, u, v, v)
            if p.k_squared >= 0.01:
                break
        assert np.max(np.abs(ledger_system_residuals(p))) < 1e-10


def test_reduced_system_matches_the_equations_written_out():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = sample_params(rng)
        got = ledger_system_residuals(p)
        rho_max = np.max(np.abs(ricci(build_form(p))))
        for value, terms in zip(got, expected_reduced_terms(p)):
            scale = sum(abs(c) for c, _ in terms) * rho_max
            assert abs(value - sum(c * r for c, r in terms)) <= 1e-13 * scale, p


def _exact_reduced_system(p):
    """The four written-out equations at 50 digits, and the scale sum |coef| max|rho| of each."""
    exact = exact_point(p)
    with mpmath.workdps(50):
        rho_max = max(abs(r) for r in expected_ricci_entries(exact, mpmath.sqrt).values())
        return [(float(sum(c * r for c, r in terms)), float(sum(abs(c) for c, _ in terms) * rho_max))
                for terms in expected_reduced_terms(exact, mpmath.sqrt)]


def test_reduced_system_keeps_its_digits_up_to_the_k_guard():
    # read off D_alpha, no 1/K coefficient cancels: the sums over Ricci entries lost eps (t/K)^2
    rng = np.random.default_rng(19)
    for _ in range(60):
        t, v, w = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        k_ratio = 10.0 ** rng.uniform(-7.9, 0.0)
        p = MetricParams(t, 2.0 * t * t * np.sqrt(1.0 - k_ratio**2) * rng.choice([-1.0, 1.0]), v, w)
        for got, (ref, scale) in zip(ledger_system_residuals(p), _exact_reduced_system(p)):
            assert abs(got - ref) <= 1e-14 * scale, (p, k_ratio)


@pytest.mark.parametrize("t", [1.0, 1.37, -0.6])
def test_reduced_system_keeps_its_digits_where_u_is_0_and_w_is_t(t):
    # the first and last equations are differences of order v^2 of Ricci entries near 3 / t^2, the
    # middle two vanish exactly
    for v in (1e-3, 1e-2, 0.1):
        p = MetricParams(t, 0.0, v * t, t)
        for got, (ref, _) in zip(ledger_system_residuals(p), _exact_reduced_system(p)):
            assert abs(got - ref) <= 1e-14 * abs(ref), (p, got, ref)


def test_v_equals_w_solves_the_first_ledger_condition_without_being_naturally_reductive():
    # a family neither solver returns: L = 0 at every admissible (t, u) once
    # v = w, yet U does not vanish there
    rng = np.random.default_rng(2026)
    for _ in range(300):
        t, v = rng.uniform(0.2, 5.0), rng.uniform(0.1, 10.0)
        p = MetricParams(t, rng.uniform(-1.99, 1.99) * t * t, v, v)
        scale = max(1.0, float(np.max(np.abs(nomizu_table(p))) * np.max(np.abs(ricci(build_form(p))))))
        assert np.max(np.abs(ledger_table(p))) <= 1e-13 * scale, p
        assert np.max(np.abs(ledger_system_residuals(p))) <= 1e-13 * scale, p
        assert p.u != 0 and not is_naturally_reductive(p), p


def test_a_solution_reports_the_determinants_at_its_params():
    # one guarded evaluation serves both, so the values agree to the bit
    for sol in solve_ledger_u0(5.0) + solve_ledger_unonzero(1.0) + solve_ledger_u0(1.0 + 1e-10):
        assert sol.residuals["star"] == float(np.max(np.abs(geometry._cached_geometry(sol.params).det)))
    assert inspect.signature(verify_solution).parameters["tol"].default == DEFAULT_TOL


def test_reduced_system_nonzero_off_solution():
    res = ledger_system_residuals(MetricParams(1, 0, 1, 2))
    assert np.max(np.abs(res)) > 0.01


# ----------------------------------------------------------------------
# u = 0 solver
# ----------------------------------------------------------------------

def test_u0_roots_at_s_five():
    sols = solve_ledger_u0(5.0)
    assert len(sols) == 2
    x1 = (5 - math.sqrt(17)) / 2
    x2 = (5 + math.sqrt(17)) / 2
    assert sols[0].V == pytest.approx(x1, rel=1e-15)
    assert sols[0].W == pytest.approx(x2, rel=1e-15)
    assert sols[1].V == pytest.approx(x2, rel=1e-15)
    assert sols[1].W == pytest.approx(x2 * x1 / sols[1].V, rel=1e-12)
    assert sols[0].V * sols[0].W == pytest.approx(2.0, rel=1e-12)  # P(5) = 2


def test_u0_vieta_at_s_two():
    sols = solve_ledger_u0(2.0)
    assert sols[0].V + sols[0].W == pytest.approx(2.0, rel=1e-14)
    assert sols[0].V * sols[0].W == pytest.approx(7.0 / 8.0, rel=1e-13)


@pytest.mark.parametrize("s", [1.0, 9.0, 0.5, 9.5, -3.0])
def test_u0_interval_is_open(s):
    with pytest.raises(InvalidParamsError):
        solve_ledger_u0(s)


def test_u0_quadratic_identity_and_residuals():
    # roots satisfy 9 - 10 S + S^2 + 8 P = 0 by construction
    for s in np.linspace(1, 9, 12)[1:-1]:
        for sol in solve_ledger_u0(float(s)):
            assert abs(9 - 10 * sol.S + sol.S**2 + 8 * sol.V * sol.W) < 1e-12
            assert sol.V > 0 and sol.W > 0
            assert sol.residuals["ledger"] < 1e-8
            assert sol.branch == "u-zero"
            assert sol.Usq == 0.0


def test_u0_solutions_verify():
    for sol in solve_ledger_u0(5.0):
        report = verify_solution(sol)
        assert report.passed
        assert not report.naturally_reductive
        assert "PASS" in report.summary()


# ----------------------------------------------------------------------
# u != 0 solver
# ----------------------------------------------------------------------

def test_unonzero_values_at_s_one():
    sols = solve_ledger_unonzero(1.0)
    assert len(sols) == 4
    top = sols[0]
    assert top.V * top.W == pytest.approx(0.15, rel=1e-13)   # P(1)
    assert (top.V - top.W) ** 2 == pytest.approx(0.4, rel=1e-12)  # discriminant
    assert top.V == pytest.approx(0.816227766016838, rel=1e-12)
    assert top.W == pytest.approx(0.183772233983162, rel=1e-12)
    assert top.Usq == pytest.approx(1.6, rel=1e-14)
    assert {s.params.u > 0 for s in sols} == {True, False}
    # closed form for v^2/t^2 on this branch
    assert top.V == pytest.approx(unonzero_closed_form_v2(1.0), rel=1e-12)


@pytest.mark.parametrize("s", [2.0, 1.0 / 3.0, S_INTERVAL_UNONZERO[1], 0.0, -1.0])
def test_unonzero_interval_is_open(s):
    with pytest.raises(InvalidParamsError):
        solve_ledger_unonzero(s)


def test_unonzero_equations_and_residuals():
    lo, hi = S_INTERVAL_UNONZERO
    for s in np.linspace(lo, hi, 12)[1:-1]:
        for sol in solve_ledger_unonzero(float(s)):
            p_val = sol.V * sol.W
            s_val = sol.S
            eq1 = 64 * p_val - 24 * p_val * s_val + 4 * s_val - 13 * s_val**2 + 3 * s_val**3
            eq2 = 7 * sol.Usq - (28 - 16 * s_val + 4 * (s_val**2 - 8 * p_val))
            assert abs(eq1) < 1e-12
            assert abs(eq2) < 1e-12
            assert 0 < sol.Usq < 208 / 63  # its value as S -> 1/3, below the bound 4 of K^2 > 0
            assert sol.V > 0 and sol.W > 0
            assert sol.residuals["ledger"] < 1e-8
            assert not sol.naturally_reductive


def test_unonzero_solutions_verify():
    for sol in solve_ledger_unonzero(1.0):
        report = verify_solution(sol)
        assert report.passed
        assert not report.naturally_reductive
        assert not report.expected_naturally_reductive


_S_LO_U1, _S_HI_U1 = S_INTERVAL_UNONZERO


def _p_u0(s):
    return (s - 1.0) * (9.0 - s) / 8.0


def _p_u1(s):
    return s * (4.0 - s) * (3.0 * s - 1.0) / (8.0 * (8.0 - 3.0 * s))


@pytest.mark.parametrize(
    "solver,s,product",
    [
        (solve_ledger_u0, 1.0 + 1e-10, _p_u0),
        (solve_ledger_u0, 9.0 - 1e-10, _p_u0),
        (solve_ledger_unonzero, _S_LO_U1 + 1e-10, _p_u1),
        (solve_ledger_unonzero, _S_HI_U1 - 1e-10, _p_u1),
    ],
)
def test_roots_exact_at_interval_ends(solver, s, product):
    # the small root is P / big root, so V W = P and V + W = S to rounding
    for sol in solver(s):
        assert sol.V * sol.W == pytest.approx(product(s), rel=1e-14, abs=0)
        assert sol.V + sol.W == pytest.approx(s, rel=1e-14, abs=0)


_NEAR_ENDS = [
    (solve_ledger_u0, 1.0 + 1e-10),
    (solve_ledger_u0, 9.0 - 1e-10),
    (solve_ledger_unonzero, _S_LO_U1 + 1e-10),
    (solve_ledger_unonzero, _S_HI_U1 - 1e-10),
]


@pytest.mark.parametrize("solver,s", _NEAR_ENDS)
def test_solutions_verify_at_interval_ends(solver, s):
    # The tables grow like 1/P near an end and the absolute residuals with
    # them (|L| = 32 at S = 9 - 1e-10); relative to their scales they stay
    # at rounding level, and that is what verification judges.
    for sol in solver(s):
        report = verify_solution(sol)
        assert report.passed, report.relative_residuals
        assert max(report.relative_residuals.values()) < 1e-13
        assert report.residuals == sol.residuals


@pytest.mark.parametrize("solver,interval", [(solve_ledger_u0, S_INTERVAL_U0), (solve_ledger_unonzero, S_INTERVAL_UNONZERO)])
def test_solutions_verify_on_dense_grids_near_both_ends(solver, interval):
    # Near S = 1 on the u = 0 branch one ulp of W moves a determinant by far
    # more than its three terms' sizes; verification judges it against the
    # sizes of all its terms in x, which bound that, and passes everywhere.
    lo, hi = interval
    for a, b in ((lo, lo + 1e-2), (hi - 1e-2, hi)):
        for sol in solver(*np.linspace(a, b, 402)[1:-1].tolist()):
            report = verify_solution(sol)
            assert report.passed and max(report.relative_residuals.values()) < 1e-13, (sol.S, report.relative_residuals)


def test_the_gram_residual_is_the_rounding_of_t_squared_over_x():
    # build_form's Gram holds fl(t^2) where the root frame has t^2, so the frame's defect is
    # (fl(t^2) - t^2) / x_k on the A modules: within 1 ulp of the exact rational everywhere, 9.85e-2 at the
    # README's near-guard point, and exactly 0 at every solver output, where t = 1
    rng = np.random.default_rng(65)
    points = [MetricParams(-1.798, 6.465607999999999, 1.0, 1.0)]
    while len(points) < 600:
        t = 10.0 ** rng.uniform(-150.0, 150.0) * rng.choice([-1.0, 1.0])
        k = 10.0 ** rng.uniform(-8.0, 0.0)  # K / |t|
        p = MetricParams(t, 2.0 * t * t * math.sqrt(1.0 - k * k) * rng.choice([-1.0, 1.0]), t, t)
        if p.k_squared >= (1e-8 * t) ** 2:
            points.append(p)
    for p in points:
        t, u = Fraction(p.t), Fraction(p.u)
        exact = abs(Fraction(p.t * p.t) - t * t) / min(t * t + u / 2, t * t - u / 2)
        assert abs(Fraction(analysis._gram_defect(p)) - exact) <= math.ulp(float(exact)), p
    near_guard = verify_solution(LedgerSolution("u-zero", 2.0, 1.0, 1.0, 0.0, points[0], {}, False))
    assert f"{near_guard.residuals['gram']:.3g}" == "0.0985"
    grid = (1.0 + 1e-6, 1.5, 5.0, 9.0 - 1e-6), (1.0 / 3.0 + 1e-6, 0.7, 1.3, S_INTERVAL_UNONZERO[1] - 1e-6)
    for solver, s_values in zip((solve_ledger_u0, solve_ledger_unonzero), grid):
        assert all(sol.residuals["gram"] == 0.0 for sol in solver(*s_values))


def test_the_ledger_verdict_judges_each_determinant_against_its_terms():
    # at u = 0, w = t the determinant is v^2 (1 - v^2) / 2 against terms of
    # about 3 + 3: 8.3e-8 of them at v = 1e-3, where |L| is 5e-13 of
    # max|nabla| max|rho|
    p = MetricParams(1.0, 0.0, 1e-3, 1.0)
    assert first_ledger_verdict(p) == (pytest.approx(5e-4, rel=1e-5), False)
    assert first_ledger_verdict(p, tol=1e-7)[1]
    assert first_ledger_verdict(MetricParams(1.0, 0.0, 1e-5, 1.0))[1]  # 8.3e-12


@pytest.mark.filterwarnings("error")
def test_the_ledger_verdict_refuses_determinants_that_are_not_finite():
    # x3 = v^2 = 1e200 makes D_alpha NaN; the CLI's ``ledger`` stops earlier, in the reduced system
    with pytest.raises(DegenerateMetricError, match=r"^the Ledger determinants are not finite: \[nan, nan\]$"):
        first_ledger_verdict(MetricParams(1.0, 0.0, 1e100, 1.0))


# near the K guard with v, w far below |t| the program's r3 and r4 round to one float, so its D_alpha are 0,
# while the Q-form L overflows: max|L| reads inf - inf
_NAN_LEDGER = MetricParams(-9.42892081319446e-80, 1.7780714471072755e-158, -9.07772418158703e-105, -9.750089198671494e-93)


@pytest.mark.filterwarnings("error")
def test_the_ledger_verdict_refuses_a_max_l_that_is_not_finite():
    assert geometry._cached_geometry(_NAN_LEDGER).det == [0.0, 0.0]
    with pytest.raises(DegenerateMetricError, match=r"^max \|L\| over frame triples is not finite: nan$"):
        first_ledger_verdict(_NAN_LEDGER)


# ----------------------------------------------------------------------
# verification catches broken solutions
# ----------------------------------------------------------------------

def test_verify_rejects_perturbed_solution():
    sol = solve_ledger_u0(5.0)[0]
    w_bad = sol.W + 0.05
    broken = LedgerSolution(
        branch=sol.branch,
        S=sol.S,
        V=sol.V,
        W=w_bad,
        Usq=0.0,
        params=MetricParams(1.0, 0.0, math.sqrt(sol.V), math.sqrt(w_bad)),
        residuals=sol.residuals,
        naturally_reductive=False,
    )
    report = verify_solution(broken)
    assert not report.passed
    assert report.residuals["ledger"] > 1e-8
    assert "FAIL" in report.summary()


def test_verify_judges_the_params_not_the_record():
    # residuals are cached by params; neither the cache nor a record's own
    # residuals may stand in for recomputing them from sol.params
    sol = solve_ledger_unonzero(1.2)[0]
    moved = dataclasses.replace(sol, params=dataclasses.replace(sol.params, v=sol.params.v * (1 + 1e-3)))
    report = verify_solution(moved)
    assert not report.passed
    assert report.residuals["ledger"] > 1e-6
    zeros = {"ledger": 0.0, "star": 0.0, "gram": 0.0}
    forged = verify_solution(dataclasses.replace(moved, residuals=zeros))
    assert not forged.passed
    assert forged.residuals == report.residuals
    assert verify_solution(dataclasses.replace(sol, residuals=zeros)).residuals == sol.residuals
    # each report holds its own dicts
    recomputed = dict(report.residuals)
    report.residuals["ledger"] = 0.0
    assert verify_solution(moved).residuals == recomputed


def test_round_point_solution_verifies():
    # both determinants vanish at the round point, with their terms
    p = MetricParams(1.0, 0.0, 1.0, 1.0)
    zeros = {"ledger": 0.0, "star": 0.0, "gram": 0.0}
    sol = LedgerSolution("u-zero", 2.0, 1.0, 1.0, 0.0, p, zeros, True)
    for tol in (DEFAULT_TOL, 0.5):
        report = verify_solution(sol, tol)
        assert report.passed, report.relative_residuals
        assert report.naturally_reductive and report.expected_naturally_reductive


def test_solution_record_schema():
    sol = solve_ledger_unonzero(1.2)[0]
    doc = sol.to_dict()
    assert set(doc) == {"branch", "S", "V", "W", "Usq", "params", "residuals", "naturally_reductive"}
    assert set(doc["params"]) == {"t", "u", "v", "w"}
    assert set(doc["residuals"]) == {"ledger", "star", "gram"}
