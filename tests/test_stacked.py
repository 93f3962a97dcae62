"""The stacked geometry: N points through one pass agree with N single points.

Every tensor carries the point as its first index, and every reduction
(maxima, verdicts, residuals) runs per point, so a stack must give each
point what a stack of one gives it, whatever else the stack holds.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from zksym import (
    MetricParams,
    analysis,
    build_form,
    geometry,
    ricci,
    solve_ledger_u0,
    solve_ledger_unonzero,
)

from oracles import sample_params

# what the solve path reads, computed at once, and the arrays on the support built from it
EXACT = ("ratios", "r", "lam", "det", "det_scale", "det_bound", "norms", "c", "u", "n", "ledger", "frame", "coframe")
# the tables presented in the adapted frame, built on first access
CLOSE = {name: (lambda geo, name=name: geo.table(name)) for name in ("c", "u", "n", "ledger")}
CLOSE["ricci"] = lambda geo: geo.ricci


def _stack(points):
    """The stacked geometry of the points, built apart from the cache."""
    return geometry._Geometry(points)


def _assert_rows(stack, n: int, one, m: int = 0) -> None:
    """Row n of a stack against row m of another: the support arrays bit-identical, the tables to 1e-15 of their size."""
    for name in EXACT:
        assert np.array_equal(getattr(stack, name)[n], getattr(one, name)[m]), name
    for name, present in CLOSE.items():
        got, ref = present(stack)[n], present(one)[m]
        assert np.max(np.abs(got - ref)) <= 1e-15 * max(1.0, float(np.max(np.abs(ref)))), name


def _homothety(p: MetricParams, lam: float) -> MetricParams:
    return MetricParams(lam * p.t, lam * lam * p.u, lam * p.v, lam * p.w)


def _mixed_points() -> list[MetricParams]:
    """Points at |t| = 1e-3 and 1e3 with their homothetic twins, signs mixed, verdicts of both kinds."""
    rng = np.random.default_rng(20)
    base = [sample_params(rng) for _ in range(3)]
    base += [solve_ledger_u0(5.0)[0].params, solve_ledger_unonzero(1.0)[1].params]
    base += [MetricParams(1.0, 0.0, 1.0, 1.0), MetricParams(1.0, 0.0, 1.0 + 1e-6, 1.0), MetricParams(1.0, 0.7, 1.3, 1.3)]
    points = []
    for p, lam in itertools.product(base, (1e-3, 1e3)):
        q = _homothety(p, lam)
        points.append(MetricParams(-q.t if len(points) % 3 == 1 else q.t, q.u, q.v, -q.w if len(points) % 2 else q.w))
    return points


def test_a_stack_gives_each_point_what_a_stack_of_one_gives_it():
    rng = np.random.default_rng(21)
    points = [sample_params(rng, k_min=1e-3) for _ in range(20)] + _mixed_points()
    stack = _stack(points)
    assert stack.c.shape == (len(points), 48) and stack.r.shape == (len(points), 4)
    assert stack.table("c").shape == (len(points), 8, 8, 8) and stack.ricci.shape == (len(points), 8, 8)
    for n, p in enumerate(points):
        _assert_rows(stack, n, _stack([p]))


def test_no_reduction_or_verdict_leaks_across_rows():
    points = _mixed_points()
    stacked = analysis._evaluate(points)
    nr = [analysis.is_naturally_reductive(p).naturally_reductive for p in points]
    assert nr.count(True) == 2 and analysis._reductive(_stack(points)).tolist() == nr
    for p, (absolute, relative, verdict) in zip(points, stacked):
        alone_absolute, alone_relative, alone_verdict = analysis._evaluate([p])[0]
        assert verdict == alone_verdict
        for (name, got), (_, ref) in zip(relative, alone_relative):
            assert abs(got - ref) <= 1e-15, name
        for (name, got), (_, ref) in zip(absolute, alone_absolute):
            assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref)), name


def test_permuting_the_stack_permutes_the_outputs():
    points = _mixed_points()
    order = np.random.default_rng(22).permutation(len(points))
    stack, permuted = _stack(points), _stack([points[i] for i in order])
    for n, i in enumerate(order):
        _assert_rows(permuted, n, stack, i)


def test_a_stacked_row_is_the_cached_query_geometry():
    # the rows of a stack go into the cache as they are, and agree with
    # what a query computes for itself
    points = _mixed_points()[:4]
    geometry._cached_geometry.cache_clear()
    stack = geometry.stacked_geometry(points)
    assert geometry._cached_geometry.cache_info()[:2] == (0, len(points))  # (hits, misses)
    for n, p in enumerate(points):
        row = geometry._cached_geometry(p)
        assert row.ratios.shape == (1, 6) and np.shares_memory(row.ratios, stack.ratios)
        assert row.c.shape == (1, 48)
        assert geometry.bracket_table(p).shape == (8, 8, 8) and ricci(build_form(p)).shape == (8, 8)
    geometry._cached_geometry.cache_clear()
    for n, p in enumerate(points):
        _assert_rows(stack, n, geometry._cached_geometry(p))


# ----------------------------------------------------------------------
# metamorphic relations, one stacked call per example
# ----------------------------------------------------------------------

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
    geo = _stack([p] + [q for q, _ in images])
    spectrum = np.linalg.eigvalsh(geo.ricci[0])
    nr, holds = analysis._reductive(geo), analysis._ledger_holds(geo)
    max_c, max_u, max_l = (np.abs(a).max(axis=1) for a in (geo.c, geo.u, geo.ledger))
    max_n, max_rho = np.abs(geo.n).max(axis=1), np.abs(geo.r).max(axis=1)
    for n, (_, lam) in enumerate(images, start=1):
        got = np.linalg.eigvalsh(geo.ricci[n]) * lam**2
        assert np.max(np.abs(got - spectrum)) <= 1e-12 * np.max(np.abs(spectrum))
        assert abs(max_c[n] * lam - max_c[0]) <= 1e-12 * max_c[0]
        assert abs(max_u[n] * lam - max_u[0]) <= 1e-12 * max_c[0]
        ledger_scale = max_n[0] * max_rho[0]
        assert abs(max_l[n] * lam**3 - max_l[0]) <= 1e-12 * ledger_scale
        assert (nr[n], holds[n]) == (nr[0], holds[0])
