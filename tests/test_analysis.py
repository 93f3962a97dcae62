import copy
import dataclasses
import inspect
import math
import pickle
import types
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
    metric,
    VerificationReport,
    verify_solution,
)

from oracles import (backward_error, expected_reduced_terms, expected_ricci_entries, exact_point, k_squared,
                     module_singular_values, sample_params, spread, unonzero_closed_form_v2)


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


def _band(tol: float) -> float:
    """The stated rounding band of _Geometry.equal: outside |eps_J - tol| <= (2 + 5 tol) 2^-53 it is exact."""
    return (2.0 + 5.0 * tol) * 2.0**-53


def _spread_corpus(rng: np.random.Generator, modules: str, tol: float, n: int) -> list[MetricParams]:
    """Seeded points whose eps_J lies 2 to 64 bands above or below tol before their parameters are rounded:
    the x_k of J spread from lo to lo (1 + eps) / (1 - eps), the others anywhere in [0.1, 10], scaled by
    s^2 with s log-uniform in [1e-90, 1e90]; for J = 34 one in three has x2 / x1 about 1e-15 (K / |t| about
    6e-8, near the K guard), where every set holding x1 and x2 has eps near 1."""
    points = []
    while len(points) < n:
        eps = tol + rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 64.0) * _band(tol)
        x = list(10.0 ** rng.uniform(-1.0, 1.0, 4))
        if modules == "34" and rng.integers(3) == 0:
            x[1] = x[0] * 10.0 ** rng.uniform(-15.5, -14.5)
        ks = [int(k) - 1 for k in rng.permutation(list(modules))]
        lo = x[ks[0]]
        x[ks[1]] = lo * (1.0 + eps) / (1.0 - eps)
        for k in ks[2:]:
            x[k] = rng.uniform(lo, x[ks[1]])
        s = 10.0 ** rng.uniform(-90.0, 90.0)
        t = rng.choice([-1.0, 1.0]) * math.sqrt((x[0] + x[1]) / 2.0) * s
        v, w = (rng.choice([-1.0, 1.0]) * math.sqrt(x[k]) * s for k in (2, 3))
        points.append(MetricParams(t, (x[0] - x[1]) * s * s, v, w))
    return points


@pytest.mark.parametrize("tol", [1e-9, 0.1, 0.9])
@pytest.mark.parametrize("modules", ["1234", "34", "124", "123"])
def test_the_equality_verdicts_are_exact_outside_the_rounding_band(modules, tol):
    # eps_J at 50 digits from the binary parameters: outside the stated band the float verdict is eps_J <= tol,
    # on both sides of tol; check-nr reads J = 1234 and the isometries J = 34, 124, 123
    near = {True: 0, False: 0}
    for p in _spread_corpus(np.random.default_rng(112), modules, tol, 150):
        eps, geo = spread(p, modules), geometry._cached_geometry(p)
        if abs(eps - tol) <= _band(tol):  # the rounding of the parameters moved it into the band
            continue
        assert geo.equal(modules, tol) == (eps <= tol), (p, eps)
        near[bool(eps <= tol)] += abs(eps - tol) <= 64 * _band(tol)
        if modules == "1234":
            assert is_naturally_reductive(p, tol).naturally_reductive == (eps <= tol), p
        dim = 4 * (spread(p, "34") <= tol) + 2 * (spread(p, "124") <= tol) + 2 * (spread(p, "123") <= tol)
        assert infinitesimal_isometries(p, tol).shape == (8, dim), p
    assert min(near.values()) >= 40, near


def test_check_nr_has_a_meaning_at_every_tolerance_below_1(capsys):
    # x = (1, 1, 100, 0.01): eps_1234 = 99.99 / 100.01 = 0.9998, on either side of tol 0.999 and 0.9999
    from zksym.cli import main
    argv = ["check-nr", "--t", "1", "--u", "0", "--v", "10", "--w", "0.1", "--tol"]
    assert (main(argv + ["0.999"]), capsys.readouterr().out.splitlines()[0]) == (0, "false")
    assert (main(argv + ["0.9999"]), capsys.readouterr().out.splitlines()[0]) == (0, "true")


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


def _projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.T


def _spread_kernel(p: MetricParams, tol: float) -> np.ndarray:
    """The projector on the modules whose equality set holds to tol at 50 digits: A~1..A~4 where eps_34 <= tol,
    B~1, B~2 where eps_124 <= tol, C~1, C~2 where eps_123 <= tol."""
    kept = [spread(p, modules) <= tol for modules in ("34", "34", "34", "34", "124", "124", "123", "123")]
    return np.diag(np.array(kept, dtype=float))


def test_isometry_queries_form_no_svd_and_span_what_a_fresh_svd_spans(monkeypatch):
    # the closed form against the reference SVD of U's rows at the default tol: the same dimension, the same
    # kernel to 1e-12; at tol 0.5, far from any equality, against the kernel of the equality sets of x;
    # and no query calls np.linalg.svd
    rng = np.random.default_rng(18)
    points = [MetricParams(*params) for params, _, _ in CASES] + [sample_params(rng) for _ in range(40)]
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    geometry._cached_geometry.cache_clear()
    got = {(p, tol): infinitesimal_isometries(p, tol) for p in points for tol in (DEFAULT_TOL, 0.5)}
    assert calls == []
    monkeypatch.undo()
    dims = set()
    for (p, tol), basis in got.items():
        want = _projector(_fresh_isometries(p, tol)) if tol == DEFAULT_TOL else _spread_kernel(p, tol)
        assert basis.shape[1] == round(np.trace(want)), (p, tol)
        assert np.max(np.abs(_projector(basis) - want), initial=0.0) <= 1e-12, (p, tol)
        dims.add((tol, basis.shape[1]))
    assert {d for tol, d in dims if tol == 0.5} != {d for tol, d in dims if tol == DEFAULT_TOL}  # the cut moves


def _isometry_corpus(rng: np.random.Generator, n: int) -> list[MetricParams]:
    """Seeded points, |t| log-uniform in [1e-3, 1e3]: generic, v = w, u = 0 with w = |t|, the round point."""
    points = []
    for i in range(n):
        t = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
        u = rng.uniform(-1.9, 1.9) * t * t
        v, w = (rng.choice([-1.0, 1.0]) * abs(t) * 10.0 ** rng.uniform(-1.0, 1.0) for _ in range(2))
        if i % 4 == 1:
            w = v
        elif i % 4 == 2:
            u, w = 0.0, abs(t)
        elif i % 4 == 3:
            u, v, w = 0.0, rng.choice([-1.0, 1.0]) * t, abs(t)
        points.append(MetricParams(t, u, v, w))
    return points


def test_the_singular_values_are_one_per_module_each_twice():
    # U's rows on the frame pairs i <= j: numpy's singular values are the four closed-form sigma_k, each twice
    for p in _isometry_corpus(np.random.default_rng(21), 1200):
        s = np.linalg.svd(geometry.u_table(p)[np.triu_indices(8)], compute_uv=False)
        sigma = np.repeat(sorted(module_singular_values(geometry._cached_geometry(p).ratios), reverse=True), 2)
        assert np.max(np.abs(s - sigma)) <= 1e-15 * s[0], p


# ----------------------------------------------------------------------
# reduced system of the first Ledger condition
# ----------------------------------------------------------------------

def test_reduced_system_zero_at_round_point():
    assert np.max(np.abs(ledger_system_residuals(MetricParams(1, 0, 1, 1)))) < 1e-13


def test_reduced_system_zero_whenever_v_equals_w():
    # K / |t| log-uniform down to the guard, as in the test below: each D_alpha carries the factor x4 - x3 = 0, so
    # the residuals are exact zeros however near the degenerate boundary
    rng = np.random.default_rng(42)
    for _ in range(300):
        t, v = rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
        k_ratio = 10.0 ** rng.uniform(-7.9, 0.0)
        p = MetricParams(t, 2.0 * t * t * np.sqrt(1.0 - k_ratio**2) * rng.choice([-1.0, 1.0]), v, v)
        assert np.max(np.abs(ledger_system_residuals(p))) == 0.0, (p, k_ratio)


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
    # more than its three terms' sizes; verification judges its backward
    # error in x, which the rounding of x bounds, and passes everywhere.
    lo, hi = interval
    for a, b in ((lo, lo + 1e-2), (hi - 1e-2, hi)):
        for sol in solver(*np.linspace(a, b, 402)[1:-1].tolist()):
            report = verify_solution(sol)
            assert report.passed and max(report.relative_residuals.values()) < 1e-13, (sol.S, report.relative_residuals)


@pytest.mark.parametrize("solver,interval", [(solve_ledger_u0, S_INTERVAL_U0), (solve_ledger_unonzero, S_INTERVAL_UNONZERO)])
def test_solutions_verify_at_the_first_and_last_floats_of_each_interval(solver, interval):
    # at the first float above 1/3, 3S = 1 + 2^-53 rounds to 1, so 3S - 1 must come from the Fast2Sum error of 2S + S
    lo, hi = interval
    first, last = [math.nextafter(lo, hi)], [math.nextafter(hi, lo)]
    for _ in range(2):
        first.append(math.nextafter(first[-1], hi))
        last.append(math.nextafter(last[-1], lo))
    solutions = solver(*first, *last[::-1])
    assert len(solutions) == 6 * (2 if solver is solve_ledger_u0 else 4)
    for sol in solutions:
        report = verify_solution(sol)
        assert report.passed and sol.V > 0.0 and sol.W > 0.0, (sol.S, report.relative_residuals)


@pytest.mark.parametrize("solver,interval",
                         [(solve_ledger_u0, S_INTERVAL_U0), (solve_ledger_unonzero, S_INTERVAL_UNONZERO)])
def test_solver_outputs_have_a_backward_error_at_rounding(solver, interval):
    # 1e-1 .. 1e-10 from both ends of the interval: each determinant is within a relative move of x by 1e-15 of 0
    lo, hi = interval
    offsets = [10.0**-k for k in range(1, 11)]
    for sol in solver(*[lo + d for d in offsets], *[hi - d for d in offsets[::-1]]):
        assert max(geometry._cached_geometry(sol.params).eta) <= 1e-15, sol.S
        assert first_ledger_verdict(sol.params, tol=1e-15)[1], sol.S


@pytest.mark.parametrize("solver,interval",
                         [(solve_ledger_u0, S_INTERVAL_U0), (solve_ledger_unonzero, S_INTERVAL_UNONZERO)])
def test_verification_and_ledger_agree_at_every_tol(solver, interval):
    # verify_solution judges the Ledger condition by eta_alpha alone, as ``ledger`` does: on a dense grid of the
    # interval (S = 1 + 4/1001 among them, where eta is 1.0e-16 and ||L|| / (||nabla|| ||rho||) 1.0e-15), on dense
    # grids 1e-2 from each end and 1e-1 .. 1e-10 from both ends, the two verdicts agree down to tol at rounding
    lo, hi = interval
    offsets = [10.0**-k for k in range(1, 11)]
    grid = (np.linspace(lo, hi, 2003)[1:-1].tolist() + np.linspace(lo, lo + 1e-2, 402)[1:-1].tolist()
            + np.linspace(hi - 1e-2, hi, 402)[1:-1].tolist() + [lo + d for d in offsets] + [hi - d for d in offsets])
    for sol in solver(*grid):
        assert not sol.naturally_reductive, sol.S
        for tol in (5e-16, 1e-15, 1e-12, 1e-9):
            assert verify_solution(sol, tol).passed == first_ledger_verdict(sol.params, tol)[1], (sol.S, tol)


def _hand_built(p: MetricParams) -> LedgerSolution:
    """A record at p that no solver built; verification reads its params alone."""
    vv, ww = (p.v / p.t) ** 2, (p.w / p.t) ** 2
    return LedgerSolution("u-zero" if p.u == 0.0 else "u-nonzero", vv + ww, vv, ww, (p.u / p.t**2) ** 2, p, {}, False)


def test_verification_and_ledger_agree_on_hand_built_solutions():
    # a solution verifies exactly where ``ledger`` reads satisfied, whoever built it: "gram" and natural reductivity
    # are reported, not judged.  README's near-guard point has gram 0.0985 and eta 0; (1, 0, 1, 1 + 1e-12) has eta
    # 1.0e-12 and is naturally reductive to check-nr.  Seeded points: u = 0 with v, w within 1e-12 .. 1e-6 relative
    # of t, where check-nr often says true; near the K guard with t^2 not a float, so gram > 0, and v = w or nearly
    near_guard = _hand_built(MetricParams(-1.798, 6.465607999999999, 1.0, 1.0))
    report = verify_solution(near_guard)
    assert report.passed and f"{report.residuals['gram']:.3g}" == "0.0985" and report.relative_residuals == {"star": 0.0}
    near_round = _hand_built(MetricParams(1.0, 0.0, 1.0, 1.0 + 1e-12))
    report = verify_solution(near_round)
    assert report.passed and report.naturally_reductive and f"{report.relative_residuals['star']:.2g}" == "1e-12"
    rng = np.random.default_rng(131)
    points = [near_guard.params, near_round.params]
    for _ in range(150):
        t = 10.0 ** rng.uniform(-3.0, 3.0) * rng.choice([-1.0, 1.0])
        v, w = (t * (1.0 + 10.0 ** rng.uniform(-12.0, -6.0) * rng.choice([-1.0, 1.0])) for _ in range(2))
        points.append(MetricParams(t, 0.0, v, w))
    while len(points) < 300:
        t = 10.0 ** rng.uniform(-3.0, 3.0) * rng.choice([-1.0, 1.0])
        k = 10.0 ** rng.uniform(-8.0, -1.0)  # K / |t|
        v = abs(t) * 10.0 ** rng.uniform(-1.0, 1.0)
        w = v * (1.0 + rng.choice([0.0, 10.0 ** rng.uniform(-16.0, -8.0)]))
        p = MetricParams(t, 2.0 * t * t * math.sqrt(1.0 - k * k) * rng.choice([-1.0, 1.0]), v, w)
        if k_squared(p) >= (1e-8 * t) ** 2 and metric._gram_defect(p) > 0.0:
            points.append(p)
    seen = set()
    for p in points:
        sol = _hand_built(p)
        for tol in (5e-16, 1e-15, 1e-12, 1e-9):
            report, satisfied = verify_solution(sol, tol), first_ledger_verdict(p, tol)[1]
            assert report.passed == satisfied, (p, tol)
            seen.add((satisfied, report.residuals["gram"] > tol, report.naturally_reductive))
    # both criteria that verification no longer judges meet points that ``ledger`` reads satisfied
    assert {(True, True, False), (True, False, True)} <= seen


def _einstein_spread(p: MetricParams) -> float:
    """max |rho - lam I| / |lam| of the Ricci matrix in the adapted frame, lam = its trace / 8."""
    rho = ricci(build_form(p))
    lam = np.trace(rho) / 8
    return float(np.max(np.abs(rho - lam * np.eye(8))) / abs(lam))


def test_the_two_einstein_metrics_lie_on_the_solver_families():
    # the Kaehler-Einstein metric, x ~ (2, 4, 3, 1) up to the swaps, is the u != 0 solution at S = 4/3, and the
    # non-Kaehler one, u = 0 and (V, W) = 3/4 +- sqrt 6 / 8, the u = 0 solution at S = 3/2: rho = lam I to rounding
    # (2.7 and 1.5 eps measured); the u = 0 solutions at S = 2 miss it by 0.18
    eps = np.finfo(float).eps
    solutions = solve_ledger_unonzero(4 / 3) + solve_ledger_u0(1.5)
    assert len(solutions) == 6
    for sol in solutions:
        assert _einstein_spread(sol.params) <= 8 * eps, sol.params
    for sol in solve_ledger_u0(2.0):
        assert 0.17 < _einstein_spread(sol.params) < 0.19, sol.params


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
        if k_squared(p) >= (1e-8 * t) ** 2:
            points.append(p)
    for p in points:
        t, u = Fraction(p.t), Fraction(p.u)
        exact = abs(Fraction(p.t * p.t) - t * t) / min(t * t + u / 2, t * t - u / 2)
        assert abs(Fraction(metric._gram_defect(p)) - exact) <= math.ulp(float(exact)), p
    near_guard = verify_solution(LedgerSolution("u-zero", 2.0, 1.0, 1.0, 0.0, points[0], {}, False))
    assert f"{near_guard.residuals['gram']:.3g}" == "0.0985"
    grid = (1.0 + 1e-6, 1.5, 5.0, 9.0 - 1e-6), (1.0 / 3.0 + 1e-6, 0.7, 1.3, S_INTERVAL_UNONZERO[1] - 1e-6)
    for solver, s_values in zip((solve_ledger_u0, solve_ledger_unonzero), grid):
        assert all(sol.residuals["gram"] == 0.0 for sol in solver(*s_values))


def test_the_ledger_verdict_judges_each_determinant_against_its_terms():
    # at u = 0, w = t the determinant is v^2 (1 - v^2) / 2, of backward error eta = 6.25e-14 at v = 1e-3, where
    # |L| is 5e-13 of max|nabla| max|rho|: the verdict that verification gives
    p = MetricParams(1.0, 0.0, 1e-3, 1.0)
    assert first_ledger_verdict(p) == (pytest.approx(5e-4, rel=1e-5), True)
    assert not first_ledger_verdict(p, tol=1e-14)[1]
    assert first_ledger_verdict(MetricParams(1.0, 0.0, 1e-5, 1.0), tol=1e-21)[1]  # 6.25e-22


def _ledger_corpus(rng: np.random.Generator, n: int) -> list[MetricParams]:
    """Seeded admissible points, t log-uniform in [1e-100, 1e100], in turn generic, near v = w, near a solver family,
    near the K guard with v, w far below |t| (where the Q-form's terms cancel), near the round point and with v/t, w/t
    down to 1e-150 (v w / t^2 log-uniform in [1e-150, 1e-4]: q / (x4 - x3) can overflow there, D_alpha does not)."""
    points = []
    while len(points) < n:
        t, sign = 10.0 ** rng.uniform(-100.0, 100.0) * rng.choice([-1.0, 1.0]), rng.choice([-1.0, 1.0], 2)
        kind, near = len(points) % 6, 10.0 ** rng.uniform(-12.0, -1.0) * rng.choice([-1.0, 1.0])
        u, v, w = t * t * rng.uniform(-1.99, 1.99), *(t * 10.0 ** rng.uniform(-2.0, 2.0, 2))
        if kind == 1:
            w = v * (1.0 + near)
        elif kind == 2:
            sol = rng.choice(solve_ledger_u0(rng.uniform(1.0, 9.0)) + solve_ledger_unonzero(rng.uniform(0.34, 1.43)))
            u, v, w = sol.params.u * t * t, sol.params.v * t * (1.0 + near), sol.params.w * t
        elif kind == 3:
            u = 2.0 * t * t * (1.0 - 0.5 * 10.0 ** rng.uniform(-15.5, -6.0)) * rng.choice([-1.0, 1.0])
            v = t * 10.0 ** rng.uniform(-8.0, -1.0)
            w = v * (1.0 + 10.0 ** rng.uniform(-12.0, 0.0))
        elif kind == 4:
            u, v, w = t * t * near, t * (1.0 + near * rng.uniform(-1.0, 1.0)), t * (1.0 + near * rng.uniform(-1.0, 1.0))
        elif kind == 5:
            logs = rng.uniform(-150.0, -4.0) * rng.dirichlet([1.0, 1.0])
            v, w = t * 10.0 ** logs[0], t * 10.0 ** logs[1]
        try:
            p = MetricParams(t, u, v * sign[0], w * sign[1])
            geometry._cached_geometry(p)
        except (ValueError, ArithmeticError):
            continue
        points.append(p)
    return points


def test_the_ledger_verdict_is_exact_outside_the_stated_band():
    # eta_alpha at 60 digits from the binary parameters, and tol placed at 1.5 times the band of
    # first_ledger_verdict's docstring below and above the larger one: the verdict is max eta_alpha <= tol
    eps, below = 2.0**-52, 0
    for p in _ledger_corpus(np.random.default_rng(129), 400):
        e = exact_point(p)
        with mpmath.workdps(60):
            eta = backward_error(e.t * e.t + e.u / 2, e.t * e.t - e.u / 2, e.v * e.v, e.w * e.w)
        x1, x2, x3, x4 = geometry._cached_geometry(p).y
        amp = [x1 / (x3 + x4 + x2), x2 / (x3 + x4 + x1)]
        top = max(range(2), key=lambda a: eta[a])
        for side in (-1.0, 1.0):
            tol = float(eta[top] * (1 + side * 48 * eps * (1 + amp[top])) + side * 48 * eps)
            if tol <= 0.0 or any(abs(eta[a] - tol) <= 32 * eps * (eta[a] * (1 + amp[a]) + 1) for a in range(2)):
                continue  # below 0, or the other eta_alpha lies inside its own band
            assert first_ledger_verdict(p, tol)[1] == (side > 0), (p, tol, eta)
            below += side < 0
    assert below >= 150


def test_the_ledger_verdict_reads_eta_where_v_and_w_are_far_below_t():
    # at unit-scale y = (1, 1, 1e-110, 4e-110), q = 2.25e220 and x4 - x3 = 3e-110, so q / (x4 - x3) overflows (a
    # form of eta through it read 0), yet D_alpha = 3.375e110 and eta_alpha = (9/4) / 6 = 0.375 at 60 digits
    p = MetricParams(1.0, 0.0, 1e-55, 2e-55)
    e = exact_point(p)
    with mpmath.workdps(60):
        exact = backward_error(e.t * e.t + e.u / 2, e.t * e.t - e.u / 2, e.v * e.v, e.w * e.w)
    assert [float(x) for x in exact] == [0.375, 0.375]
    assert geometry._cached_geometry(p).eta == pytest.approx([0.375, 0.375], rel=1e-15)
    assert not first_ledger_verdict(p)[1] and not first_ledger_verdict(p, 0.37)[1] and first_ledger_verdict(p, 0.38)[1]


@pytest.mark.filterwarnings("error")
def test_the_ledger_verdict_refuses_determinants_that_are_not_finite():
    # x3 = v^2 = 1e200 makes D_alpha = (x4 - x3) q / 2, with q about x3, -inf; the CLI's ``ledger`` stops
    # earlier, in the reduced system
    with pytest.raises(DegenerateMetricError, match=r"^the Ledger determinants are not finite: \[-inf, -inf\]$"):
        first_ledger_verdict(MetricParams(1.0, 0.0, 1e100, 1.0))


def test_the_ledger_verdict_refuses_partials_that_overflow():
    # the program gives eta_alpha = NaN where a partial x_k dD_alpha/dx_k overflows but D_alpha does not: no
    # verdict there, rather than eta_alpha = |D_alpha| / inf = 0
    geo = types.SimpleNamespace(det=[1.5, -2.0], eta=[0.25, math.nan])
    message = r"^the partials of the Ledger determinants overflow: D = \[1\.5, -2\.0\]$"
    with pytest.raises(DegenerateMetricError, match=message):
        geometry._Geometry.evaluation(geo)


# near the K guard with v, w far below |t|: at the unit scale (e = -263) D_1 = 8.6309e50 and D_2 = 1.0789e50
# exactly (60 digits), which the Q-form keeps, so lam_1 = D_1 / sqrt(x1 x3 x4) is 7.3e325 at the point's scale;
# the three terms (x_i - x_j) r_k of D_alpha, and the differences of the ratios, cancel to 0 in floats there
_OVERFLOWING_LEDGER = MetricParams(-9.42892081319446e-80, 1.7780714471072755e-158, -9.07772418158703e-105,
                                   -9.750089198671494e-93)


@pytest.mark.filterwarnings("error")
def test_the_ledger_verdict_refuses_a_max_l_that_is_not_finite():
    e, y = _OVERFLOWING_LEDGER.unit_scalars
    with pytest.raises(DegenerateMetricError, match=r"^the curvature tensors overflow at this scale$"):
        geometry._program(e, y)
    with pytest.raises(DegenerateMetricError, match=r"^the curvature tensors overflow at this scale$"):
        first_ledger_verdict(_OVERFLOWING_LEDGER)


# v = w far below |t|: D_alpha = 0, so lam = 0 and the evaluation stage is finite, but at the unit scale (e = -216)
# y3 = y4 = 2.8e-124 lies outside the box where the presentation cannot overflow, and r does overflow at the point's
# scale: the geometry refuses the point when built, so each point command exits 2, whether or not it reads r
_OVERFLOWING_RICCI = ("--t", "-1.3932093653883701e-65", "--u", "0", "--v", "-1.5898027112581439e-127",
                      "--w", "-1.5898027112581439e-127")


@pytest.mark.filterwarnings("error")
def test_a_point_whose_presentation_overflows_is_refused_by_every_point_command(capsys):
    from zksym.cli import main
    with pytest.raises(DegenerateMetricError, match=r"^the curvature tensors overflow at this scale$"):
        geometry._Geometry(MetricParams(*map(float, _OVERFLOWING_RICCI[1::2])))
    geometry._cached_geometry.cache_clear()
    for command in ("ledger", "check-nr", "isometries"):
        assert main([command, *_OVERFLOWING_RICCI]) == 2
        assert capsys.readouterr() == ("", "numerical failure: the curvature tensors overflow at this scale\n")


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


@pytest.mark.parametrize("record", ["solution", "report"])
def test_the_solution_records_keep_their_dataclass_contract(record):
    # fields in order, written once at construction: repr, ==, replace, keywords, copies and pickle as a
    # frozen dataclass of these fields gives them
    sol = solve_ledger_unonzero(1.2)[0]
    value = sol if record == "solution" else verify_solution(sol)
    names = (["branch", "S", "V", "W", "Usq", "params", "residuals", "naturally_reductive"] if record == "solution"
             else ["passed", "residuals", "naturally_reductive", "relative_residuals"])
    cls = type(value)
    assert [f.name for f in dataclasses.fields(value)] == names
    assert list(vars(value)) == names
    values = [getattr(value, name) for name in names]
    assert dataclasses.astuple(value) == dataclasses.astuple(cls(*values))
    assert repr(value) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    assert value == cls(*values) == cls(**dict(zip(names, values)))
    changed = dataclasses.replace(value, naturally_reductive=not value.naturally_reductive)
    assert changed != value and vars(changed) == {**vars(value), "naturally_reductive": not value.naturally_reductive}
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert copied == value and list(vars(copied)) == names
    with pytest.raises(TypeError):
        cls(*values[:-1])
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = None


def test_a_reports_residuals_are_its_own():
    # the evaluation is kept on the point's geometry, yet each report gets a new dict: mutating one changes
    # neither the solution's residuals nor a later report
    sol = solve_ledger_u0(5.0)[0]
    kept = dict(sol.residuals)
    report = verify_solution(sol)
    assert report.residuals == kept and report.residuals is not sol.residuals
    report.residuals["ledger"] = report.residuals["star"] = -1.0
    report.relative_residuals["star"] = -1.0
    again = verify_solution(sol)
    assert sol.residuals == kept and again.residuals == kept and again.relative_residuals["star"] >= 0.0
    assert again.residuals is not report.residuals and again.passed


def test_round_point_solution_verifies():
    # both determinants vanish at the round point, with their terms
    p = MetricParams(1.0, 0.0, 1.0, 1.0)
    zeros = {"ledger": 0.0, "star": 0.0, "gram": 0.0}
    sol = LedgerSolution("u-zero", 2.0, 1.0, 1.0, 0.0, p, zeros, True)
    for tol in (DEFAULT_TOL, 0.5):
        report = verify_solution(sol, tol)
        assert report.passed, report.relative_residuals
        assert report.naturally_reductive


def test_solution_record_schema():
    sol = solve_ledger_unonzero(1.2)[0]
    doc = sol.to_dict()
    assert set(doc) == {"branch", "S", "V", "W", "Usq", "params", "residuals", "naturally_reductive"}
    assert set(doc["params"]) == {"t", "u", "v", "w"}
    assert set(doc["residuals"]) == {"ledger", "star", "gram"}
