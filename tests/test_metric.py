import copy
import dataclasses
import math
import pickle
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from zksym import (
    AdaptedForm,
    DegenerateMetricError,
    GradedLieAlgebra,
    GradingLabel,
    InvalidParamsError,
    MetricParams,
    build_form,
    build_so5,
    check_adh_invariance,
    metric,
    orthonormal_frame,
)

import oracles
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
    # an int beyond the floats, where float() raises OverflowError, is refused as an infinity is, by name
    for index, name in enumerate("tuvw"):
        for big in (10**400, -(10**400)):
            args = [1, 0, 1, 1]
            args[index] = big
            with pytest.raises(InvalidParamsError, match=f"^parameter {name} must be finite"):
                MetricParams(*args)


def _bits(scalars) -> tuple:
    e, y = scalars
    return e, tuple(x.hex() for x in y)  # hex tells -0.0 from 0.0


def test_metric_params_keeps_its_dataclass_contract():
    # unit_scalars is an attribute set once at construction, beside the four fields, not one of them
    p = MetricParams(1.5, -0.25, 2.0, -0.5)
    assert [f.name for f in dataclasses.fields(p)] == ["t", "u", "v", "w"]
    assert dataclasses.astuple(p) == (1.5, -0.25, 2.0, -0.5)
    assert repr(p) == "MetricParams(t=1.5, u=-0.25, v=2.0, w=-0.5)"
    assert p == MetricParams(1.5, -0.25, 2.0, -0.5) and hash(p) == hash((1.5, -0.25, 2.0, -0.5))
    assert p != MetricParams(1.5, 0.25, 2.0, -0.5)
    q = dataclasses.replace(p, u=0.25)
    assert q == MetricParams(1.5, 0.25, 2.0, -0.5)
    assert _bits(q.unit_scalars) == _bits(oracles.unit_scalars(1.5, 0.25, 2.0, -0.5)) != _bits(p.unit_scalars)
    for copied in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert copied == p and _bits(copied.unit_scalars) == _bits(p.unit_scalars)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.unit_scalars = (0, (1.0, 1.0, 1.0, 1.0))


def test_unit_scalars_are_bit_identical_to_the_formula():
    rng = random.Random(27)
    points = [(1e-200, 0.0, 1.0, 1.0), (-1e-200, 0.0, 1e-300, 1e300), (1e200, 1.7e308, 1e-300, 1e200),
              (-1e200, -1e300, 1e150, -1.0), (1.190614449268857, 2.8351255336155674, 1.0, 1.0)]  # K/|t| = 1.27e-8
    for _ in range(300):
        t = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-150.0, 150.0)
        v, w = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
        points.append((t, rng.uniform(-1.99, 1.99) * t * t, v, w))
        # K/|t| from 1.5e-8 to 1e-4, just above the guard of 1e-8
        kappa = 10.0 ** rng.uniform(math.log10(1.5e-8), -4.0)
        points.append((t, rng.choice((-1.0, 1.0)) * 2.0 * t * t * math.sqrt(1.0 - kappa * kappa), v, w))
    checked = 0
    for point in points:
        try:
            p = MetricParams(*point)
        except InvalidParamsError:  # indefinite, refused from the same scalars: the formula's y1 or y2 is negative
            assert min(oracles.unit_scalars(*point)[1][:2]) < 0.0, point
            continue
        assert _bits(p.unit_scalars) == _bits(oracles.unit_scalars(*point)), point
        checked += 1
    assert checked >= 550
    assert MetricParams(1.190614449268857, 2.8351255336155674, 1, 1).K > 1e-8 * 1.190614449268857


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
    assert u < 2 * t * t and abs(Fraction(oracles.k_squared(p)) - exact) <= 4 * np.finfo(float).eps * exact
    assert f"{oracles.k_squared(p):.5g}" == "1.5616e-16"
    with pytest.raises(DegenerateMetricError, match="too close to the degenerate boundary"):
        p.K
    for u in (2.0, -2.0):  # on the boundary |u| = 2t^2, where K^2 = 0
        assert oracles.k_squared(MetricParams(1, u, 1, 1)) == 0.0
        with pytest.raises(DegenerateMetricError):
            build_form(MetricParams(1, u, 1, 1))
    # past |u| = 2t^2 the form is indefinite: invalid input, not a degenerate metric
    for u in (3.0, -2.5, 4 * (1 - 5e-9)):
        with pytest.raises(InvalidParamsError, match=r"\(-2t\^2, 2t\^2\)"):
            MetricParams(1, u, 1, 1)
    assert MetricParams(1, 1.9, 1, 1).K > 0


def test_quoted_bounds_read_as_their_floats_or_exactly_below_the_normal_floats():
    # the error messages quote 2t^2, K^2, (1e-8 t)^2 and the squares as y * 4^e from the unit scale: as the
    # float prints where it is normal, else the exact binary value to the same digits, never 0 or inf
    rng = np.random.default_rng(31)
    with localcontext(prec=3000):  # y * 4^e exactly
        for _ in range(500):
            y, e, digits = rng.uniform(1e-3, 8.0), int(rng.integers(-1100, 560)), int(rng.choice([3, 6]))
            try:
                x = math.ldexp(y, 2 * e)
            except OverflowError:
                x = math.inf
            if sys.float_info.min <= x < math.inf:
                assert metric._quote(y, e, digits) == f"{x:.{digits}g}"
            else:  # the binary fraction y / 4^-e in decimal, where a quotient by a power of two is exact
                n, d = (Fraction(y) * Fraction(4) ** e).as_integer_ratio()
                mantissa, exponent = f"{Decimal(n) / Decimal(d):.{digits - 1}e}".split("e")
                assert metric._quote(y, e, digits) == f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"
    assert metric._quote(0.0, -600, 3) == "0"
    assert metric._quote(1.0, -1000, 6) == "8.70981e-603" and metric._quote(0.75, -537, 3) == "3.71e-324"
    assert metric._quote(1.0, 1000, 6) == "1.14813e+602" and metric._quote(4.0, 511, 3) == "1.8e+308"  # 2^1024


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
            assert abs(oracles.k_squared(p) - exact.k_squared) <= 4 * eps * exact.k_squared, p
            assert abs(p.K - exact.K) <= 4 * eps * exact.K, p
            f = mpf(orthonormal_frame(p).matrix)
            defect = f.T @ mpf(build_form(p).gram) @ f - np.eye(8)
            assert max(abs(x) for x in defect.flat) <= 4 * eps * exact.t**2 / exact.k_squared, p


def test_k_keeps_its_digits_where_k_squared_is_subnormal():
    # K/|t| = 1.75e-8 at |t| = 1e-150: K^2 = 3.1e-316 is subnormal, K = 1.75e-158 is not, and it is
    # formed as sqrt(x1 x2) / |t| at the unit scale
    p = MetricParams(1e-150, 1.9999999999999997e-300, 1e-150, 1e-150)
    exact = exact_point(p)
    assert oracles.k_squared(p) < sys.float_info.min
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
    # an 8-dimensional algebra with h = 0 has no isotropy to check
    odd = GradedLieAlgebra([f"m{i}" for i in range(8)], np.zeros((8, 8, 8)), [GradingLabel((True,))] * 8)
    assert check_adh_invariance(odd, build_form(MetricParams(*params))) == metric.InvarianceReport(0.0, ("", "", ""))


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
    # an algebra whose m is 1-dimensional against so(5)'s 8 x 8 form
    h_m = GradedLieAlgebra(["h", "m"], np.zeros((2, 2, 2)), [GradingLabel((False,)), GradingLabel((True,))])
    with pytest.raises(ValueError, match="^form dimension does not match the reductive complement$"):
        check_adh_invariance(h_m, build_form(MetricParams(1, 0, 1, 2)))


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
