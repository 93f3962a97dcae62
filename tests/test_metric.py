import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from zksym import (
    AdaptedForm,
    DegenerateMetricError,
    InvalidParamsError,
    MetricParams,
    build_form,
    build_so5,
    check_adh_invariance,
    orthonormal_frame,
)

from oracles import exact_point, sample_params


# ----------------------------------------------------------------------
# parameter validation
# ----------------------------------------------------------------------

def test_rejects_u_on_boundary():
    with pytest.raises(InvalidParamsError):
        MetricParams(1, 4, 1, 1)
    with pytest.raises(InvalidParamsError):
        MetricParams(1, -4, 1, 1)
    with pytest.raises(InvalidParamsError):
        MetricParams(0.5, 1.0, 1, 1)  # 4 t^2 = 1


@pytest.mark.parametrize("bad", [(0, 0, 1, 1), (1, 0, 0, 1), (1, 0, 1, 0)])
def test_rejects_zero_scale(bad):
    with pytest.raises(InvalidParamsError):
        MetricParams(*bad)


def test_rejects_non_finite():
    with pytest.raises(InvalidParamsError):
        MetricParams(float("nan"), 0, 1, 1)
    with pytest.raises(InvalidParamsError):
        MetricParams(1, float("inf"), 1, 1)


def test_k_value():
    p = MetricParams(1, 1, 1, 1)
    assert p.K == pytest.approx(math.sqrt(3) / 2, rel=1e-15)
    assert MetricParams(2, 0, 1, 1).K == 2.0


def test_k_when_u_squared_overflows():
    # u^2 = 1e616 overflows, K^2 = t^2 - u^2/(4t^2) = 0.75e308 does not
    p = MetricParams(1e154, 1e308, 1e154, 1e154)
    assert p.K == pytest.approx(math.sqrt(0.75) * 1e154, rel=1e-15)
    f = orthonormal_frame(p).matrix
    assert np.allclose(f.T @ build_form(p).gram @ f, np.eye(8), rtol=0, atol=1e-14)


def test_k_guard_near_degenerate():
    # admissible, yet 2t^2 - u is 3.3e-17 of 2t^2: K^2 = x1 x2 / t^2 from the exact t^2 is 1.56e-16,
    # 0.66 of the guard, which refuses it
    p = MetricParams(1.5442292252959517, 4.76928780051627, 1, 1)
    t, u = Fraction(p.t), Fraction(p.u)
    exact = (t * t + u / 2) * (t * t - u / 2) / (t * t)
    assert u < 2 * t * t and abs(Fraction(p.k_squared) - exact) <= 4 * np.finfo(float).eps * exact
    assert f"{p.k_squared:.5g}" == "1.5616e-16"
    with pytest.raises(DegenerateMetricError, match="too close to the degenerate boundary"):
        p.K
    for u in (2.0, -2.0):  # on the boundary |u| = 2t^2, where K^2 = 0
        assert MetricParams(1, u, 1, 1).k_squared == 0.0
        with pytest.raises(DegenerateMetricError):
            build_form(MetricParams(1, u, 1, 1))
    # past |u| = 2t^2 the form is indefinite: invalid input, not a degenerate metric
    for u in (3.0, -2.5, 4 * (1 - 5e-9)):
        with pytest.raises(InvalidParamsError, match=r"\(-2t\^2, 2t\^2\)"):
            MetricParams(1, u, 1, 1)
    assert MetricParams(1, 1.9, 1, 1).K > 0


def test_k_squared_and_frame_keep_their_digits_across_scales():
    # K^2 = x1 x2 / t^2 is formed at the unit scale from the exact t^2, so at every scale K^2 and K
    # keep all but a few ulps; the frame's mix h / (t K), h = u/(2t), loses only the eps (t/K)^2 of
    # rounding h
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    mpf = np.vectorize(mpmath.mpf, otypes=[object])
    for _ in range(150):
        t = 10.0 ** rng.uniform(-150, 150) * rng.choice([-1.0, 1.0])
        k_ratio = 10.0 ** rng.uniform(-7.9, 0)
        u = 2.0 * t * t * np.sqrt(1.0 - k_ratio**2) * rng.choice([-1.0, 1.0])
        p = MetricParams(t, u, t * rng.uniform(0.5, 2.0), t * rng.uniform(0.5, 2.0))
        exact = exact_point(p)
        with mpmath.workdps(50):
            assert abs(p.k_squared - exact.k_squared) <= 4 * eps * exact.k_squared, p
            assert abs(p.K - exact.K) <= 4 * eps * exact.K, p
            f = mpf(orthonormal_frame(p).matrix)
            defect = f.T @ mpf(build_form(p).gram) @ f - np.eye(8)
            assert max(abs(x) for x in defect.flat) <= 4 * eps * exact.t**2 / exact.k_squared, p


def test_k_keeps_its_digits_where_k_squared_is_subnormal():
    # K/|t| = 1.75e-8 at |t| = 1e-150: K^2 = 3.1e-316 is subnormal, K = 1.75e-158 is not, and it is
    # formed as sqrt(x1 x2) / |t| at the unit scale
    p = MetricParams(1e-150, 1.9999999999999997e-300, 1e-150, 1e-150)
    exact = exact_point(p)
    assert p.k_squared < sys.float_info.min
    with mpmath.workdps(50):
        assert abs(p.K - exact.K) <= 4 * np.finfo(float).eps * exact.K


# ----------------------------------------------------------------------
# build_form
# ----------------------------------------------------------------------

def test_unit_params_give_identity():
    g = build_form(MetricParams(1, 0, 1, 1)).gram
    assert np.array_equal(g, np.eye(8))


def test_mixed_entries_at_u_one():
    g = build_form(MetricParams(1, 1, 1, 1)).gram
    assert g[0, 3] == 0.5 and g[3, 0] == 0.5
    assert g[1, 2] == -0.5 and g[2, 1] == -0.5
    off = g - np.diag(np.diag(g))
    off[0, 3] = off[3, 0] = off[1, 2] = off[2, 1] = 0.0
    assert np.array_equal(off, np.zeros((8, 8)))


def test_block_structure_and_positivity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = sample_params(rng)
        g = build_form(p).gram
        assert np.array_equal(g, g.T)
        assert np.array_equal(g[:4, 4:], np.zeros((4, 4)))
        assert np.array_equal(g[4:6, 6:], np.zeros((2, 2)))
        # A-block eigenvalues are t^2 +- u/2, each double
        eig = np.sort(np.linalg.eigvalsh(g[:4, :4]))
        t2, hu = p.t * p.t, abs(p.u) / 2
        assert eig == pytest.approx([t2 - hu, t2 - hu, t2 + hu, t2 + hu], rel=1e-12)
        assert np.all(np.linalg.eigvalsh(g) > 0)


# ----------------------------------------------------------------------
# ad(h)-invariance
# ----------------------------------------------------------------------

@pytest.mark.parametrize("params", [(1, 0, 1, 2), (2, 3, 1, 1), (1.5, -1.2, 0.7, 1.1)])
def test_adh_invariance_of_built_forms(params):
    alg = build_so5()
    report = check_adh_invariance(alg, build_form(MetricParams(*params)))
    assert report.max_residual <= 1e-12
    assert report.ok()
    # all residuals tie at zero: the last h element wins, at its first m pair
    assert report.worst == ("X2", "A1", "A1")


def test_adh_invariance_detects_tampering():
    alg = build_so5()
    g = np.array(build_form(MetricParams(1, 0, 1, 1)).gram)
    g[1, 2] = g[2, 1] = 0.3
    report = check_adh_invariance(alg, AdaptedForm(gram=g))
    assert report.max_residual > 0.1
    assert not report.ok()
    assert report.worst == ("X2", "A1", "A3")


def test_adh_invariance_rejects_wrong_shape():
    with pytest.raises(ValueError):
        AdaptedForm(gram=np.eye(7))


# ----------------------------------------------------------------------
# orthonormal frame
# ----------------------------------------------------------------------

def test_frame_trivial_at_unit_params():
    f = orthonormal_frame(MetricParams(1, 0, 1, 1))
    assert np.array_equal(f.matrix, np.eye(8))


def test_frame_mixing_at_u_one():
    p = MetricParams(1, 1, 1, 1)
    f = orthonormal_frame(p)
    k = math.sqrt(3) / 2
    a4 = f.vector("A~4")
    assert a4[0] == pytest.approx(-1 / (2 * k), rel=1e-15)
    assert a4[3] == pytest.approx(1 / k, rel=1e-15)
    g = build_form(p).gram
    assert a4 @ g @ a4 == pytest.approx(1.0, rel=1e-14)
    a1 = f.vector("A~1")
    assert abs(a1 @ g @ a4) < 1e-15


def test_frame_gram_congruence_is_identity():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = sample_params(rng)
        f = orthonormal_frame(p).matrix
        g = build_form(p).gram
        assert np.max(np.abs(f.T @ g @ f - np.eye(8))) < 1e-12


def test_frame_vectors_grading_homogeneous():
    # each frame vector sits inside a single grading block of m
    rng = np.random.default_rng(13)
    blocks = (slice(0, 4), slice(0, 4), slice(0, 4), slice(0, 4),
              slice(4, 6), slice(4, 6), slice(6, 8), slice(6, 8))
    for _ in range(10):
        f = orthonormal_frame(sample_params(rng)).matrix
        for j, block in enumerate(blocks):
            outside = np.delete(f[:, j], np.r_[block])
            assert np.array_equal(outside, np.zeros_like(outside))


def test_frame_refuses_near_degenerate():
    for u in (2.0, -2.0):
        with pytest.raises(DegenerateMetricError):
            orthonormal_frame(MetricParams(1, u, 1, 1))
    with pytest.raises(DegenerateMetricError):  # admissible, inside the guard of K = 0
        orthonormal_frame(MetricParams(1.5442292252959517, 4.76928780051627, 1, 1))
    for u in (4.0, -4.0):
        with pytest.raises(InvalidParamsError):
            MetricParams(1, u, 1, 1)
