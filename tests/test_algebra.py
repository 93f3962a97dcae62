import json
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zksym import (
    GradedLieAlgebra,
    GradingLabel,
    algebra_from_dict,
    algebra_to_dict,
    build_so5,
)

from oracles import (commutator, coords_from_matrix, dense_validate, rows_from_structure, skew_unit,
                     structure_from_rows)


# ----------------------------------------------------------------------
# GradingLabel group laws
# ----------------------------------------------------------------------

bits = st.lists(st.booleans(), min_size=1, max_size=5)


@given(bits)
def test_label_self_inverse(b):
    lab = GradingLabel(tuple(b))
    assert lab * lab == GradingLabel.identity(lab.k)


@given(bits, bits.filter(lambda b: len(b) <= 5))
def test_label_commutative(b1, b2):
    if len(b1) != len(b2):
        with pytest.raises(ValueError):
            GradingLabel(tuple(b1)) * GradingLabel(tuple(b2))
        return
    l1, l2 = GradingLabel(tuple(b1)), GradingLabel(tuple(b2))
    assert l1 * l2 == l2 * l1


@given(bits)
def test_label_identity_neutral(b):
    lab = GradingLabel(tuple(b))
    e = GradingLabel.identity(lab.k)
    assert lab * e == lab


def test_label_needs_bits():
    with pytest.raises(ValueError):
        GradingLabel(())


# ----------------------------------------------------------------------
# bracket
# ----------------------------------------------------------------------

def test_bracket_self_is_zero():
    alg = build_so5()
    x1 = alg.basis_vector("X1")
    assert np.array_equal(alg.bracket(x1, x1), np.zeros(10))


def test_bracket_x1_a1_matches_matrix_oracle():
    alg = build_so5()
    got = alg.bracket(alg.basis_vector("X1"), alg.basis_vector("A1"))
    expected = coords_from_matrix(commutator(skew_unit("X1"), skew_unit("A1")))
    assert np.array_equal(got, expected)
    assert np.array_equal(got, -alg.basis_vector("A3"))


def test_bracket_b1_c1_lands_in_a_block():
    alg = build_so5()
    got = alg.bracket(alg.basis_vector("B1"), alg.basis_vector("C1"))
    expected = coords_from_matrix(commutator(skew_unit("B1"), skew_unit("C1")))
    assert np.array_equal(got, expected)
    assert np.array_equal(got, -alg.basis_vector("A1"))
    # grading: b * c = a
    from zksym.so5 import LABELS

    assert LABELS["b"] * LABELS["c"] == LABELS["a"]


def test_a_structure_tensor_of_another_shape_is_refused():
    so5 = build_so5()
    with pytest.raises(ValueError) as refusal:
        GradedLieAlgebra(so5.names, np.zeros((10, 10, 9)), so5.grading)
    assert str(refusal.value) == "structure tensor must have shape (10, 10, 10), got (10, 10, 9)"


def test_bracket_dimension_mismatch():
    alg = build_so5()
    with pytest.raises(ValueError):
        alg.bracket(np.zeros(9), np.zeros(10))


def test_bracket_antisymmetric_on_all_pairs():
    alg = build_so5()
    eye = np.eye(10)
    for i in range(10):
        for j in range(10):
            assert np.array_equal(alg.bracket(eye[i], eye[j]), -alg.bracket(eye[j], eye[i]))


def test_bracket_grading_homogeneous():
    # [g_l1, g_l2] lands inside the block labelled l1 * l2
    alg = build_so5()
    eye = np.eye(10)
    for i in range(10):
        for j in range(10):
            out = alg.bracket(eye[i], eye[j])
            target = alg.grading[i] * alg.grading[j]
            assert all(alg.grading[k] == target for k in np.flatnonzero(out))


def test_h_bracket_m_stays_in_m():
    alg = build_so5()
    eye = np.eye(10)
    for h in alg.h_indices:
        for m in alg.m_indices:
            out = alg.bracket(eye[h], eye[m])
            assert set(np.flatnonzero(out)) <= set(alg.m_indices)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_validate_so5_clean_exact():
    report = build_so5().validate(0.0)
    assert report.ok
    assert report.max_jacobi_residual == 0.0
    assert report.max_antisymmetry_residual == 0.0
    assert report.summary() == "valid"
    with pytest.raises(ValueError, match="^tol must be nonnegative$"):
        build_so5().validate(-1.0)


def test_validate_reports_jacobi_violation():
    alg = build_so5()
    c = np.array(alg.structure)
    c[0, 2, 5] += 0.1
    c[2, 0, 5] -= 0.1  # keep antisymmetry so only Jacobi breaks
    broken = GradedLieAlgebra(alg.names, c, alg.grading)
    report = broken.validate(1e-12)
    assert not report.ok
    assert report.jacobi
    assert not report.antisymmetry
    assert report.jacobi == (
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 2, 4), (0, 2, 7),
        (0, 2, 9), (0, 6, 8), (2, 3, 5), (2, 6, 7),
    )
    assert report.grading == ()


def _three_rows_doc(scale: float) -> dict:
    """e2 acting on e0, e1, e2 with constants +-scale: antisymmetric, and its Jacobi sum along e2 is not 0."""
    rows = [[0, 2, 2, 1.0], [1, 2, 0, 1.0], [1, 2, 2, 1.0], [2, 0, 2, -1.0], [2, 1, 0, -1.0], [2, 1, 2, -1.0]]
    return {"dim": 3, "names": ["e0", "e1", "e2"], "grading": [[False]] * 3,
            "structure": [[i, j, k, scale * value] for i, j, k, value in rows]}


@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_validate_reports_a_jacobi_sum_that_overflows(scale):
    # at 1e200 the products overflow and inf - inf leaves a NaN row: a violation, as the same rows at 1 are,
    # and no numpy warning is raised
    alg = algebra_from_dict(_three_rows_doc(scale))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [alg.validate(tol) for tol in (0.0, 1e-9, 0.3)]
    for report in reports:
        assert (report.antisymmetry, report.jacobi, report.grading) == ((), ((0, 1, 2),), ())
        assert report.summary() == "invalid: 1 Jacobi violation(s)"
        assert math.isnan(report.max_jacobi_residual) is (scale > 1.0)


def test_validate_reports_antisymmetry_violation():
    alg = build_so5()
    c = np.array(alg.structure)
    c[0, 2, 5] += 0.1
    report = GradedLieAlgebra(alg.names, c, alg.grading).validate(1e-12)
    assert report.antisymmetry
    assert report.max_antisymmetry_residual == pytest.approx(0.1)
    assert report.jacobi  # the lone perturbed constant breaks Jacobi as well
    assert report.antisymmetry == ((0, 2, 5),)
    assert report.jacobi == ((0, 2, 3), (0, 2, 4), (0, 2, 7), (0, 2, 9), (2, 3, 5), (2, 6, 7))
    assert report.grading == ()


def test_validate_reports_grading_violation():
    alg = build_so5()
    grading = list(alg.grading)
    from zksym.so5 import LABELS

    grading[alg.index("A1")] = LABELS["b"]  # relabel A1 into the b block
    report = GradedLieAlgebra(alg.names, alg.structure, grading).validate(1e-12)
    assert not report.ok
    assert report.grading
    assert report.grading == (
        (0, 2, 4), (0, 4, 2), (1, 2, 3), (1, 3, 2), (2, 0, 4), (2, 1, 3),
        (2, 3, 1), (2, 4, 0), (2, 6, 8), (2, 8, 6), (3, 1, 2), (3, 2, 1),
        (4, 0, 2), (4, 2, 0), (6, 2, 8), (6, 8, 2), (8, 2, 6), (8, 6, 2),
    )
    assert report.antisymmetry == () and report.jacobi == ()


def _valid_base(n: int, rng: np.random.Generator) -> tuple[np.ndarray, list[GradingLabel]]:
    """so(5), so(3) or nothing, whichever fits in n, plus an abelian rest with random Z_2^2 labels."""
    c = np.zeros((n, n, n))
    if n >= 10:
        so5 = build_so5()
        c[:10, :10, :10], grading = so5.structure, list(so5.grading)
    elif n >= 3:
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # [e_i, e_j] = e_k, graded a, b, c
            c[i, j, k], c[j, i, k] = 1.0, -1.0
        grading = [GradingLabel(bits) for bits in ((True, False), (False, True), (True, True))]
    else:
        grading = []
    grading += [GradingLabel(tuple(bits)) for bits in rng.integers(0, 2, (n - len(grading), 2)).tolist()]
    return c, grading


def _random_algebra(kind: str, n: int, seed: int) -> GradedLieAlgebra:
    rng = np.random.default_rng([n, seed])
    c, grading = _valid_base(n, rng)
    perm = rng.permutation(n)  # the same algebra in another basis order
    if kind in ("gaussian", "overflowing"):  # neither antisymmetric nor integer
        c = rng.standard_normal((n, n, n))
        if kind == "overflowing" and n < 7:  # every product overflows to +-inf, so most Jacobi rows are NaN
            c *= 1e200
        elif kind == "overflowing":  # [[e0,e1],e3] = inf and [[e1,e3],e0] = -inf along e4: a NaN row among finite ones
            c[0, 1, 2] = c[2, 3, 4] = c[1, 3, 6] = 1e200
            c[6, 0, 4] = -1e200
    elif kind == "antisymmetric gaussian":
        g = rng.standard_normal((n, n, n))
        c = g - g.transpose(1, 0, 2)
    elif kind == "planted":
        # dyadic constants: every residual is exact, whatever order the products are summed in
        for _ in range(rng.integers(1, 4)):
            i, j, k = rng.integers(0, n, 3)
            c[i, j, k] += rng.choice([-3.0, -0.5, 0.125, 0.25, 2.0])
            if rng.random() < 0.5:  # keep antisymmetry, so only Jacobi or closure breaks
                c[j, i, k] = -c[i, j, k] if i != j else 0.0
    return GradedLieAlgebra([f"e{i}" for i in range(n)], c[np.ix_(perm, perm, perm)], [grading[i] for i in perm])


@pytest.mark.parametrize("kind", ["valid", "planted", "gaussian", "antisymmetric gaussian", "overflowing"])
def test_validate_matches_the_dense_oracle(kind):
    for n in range(1, 13):
        for seed in range(3):
            alg = _random_algebra(kind, n, seed)
            for tol in (0.0, 1e-12, 1e-9, 0.3):
                # the overflowing kind sums infinities of both signs: its residuals are inf and NaN
                with np.errstate(over="ignore", invalid="ignore"):
                    report = alg.validate(tol)
                    *triples, max_anti, max_jac = dense_validate(alg.structure, alg.grading, tol)
                assert [report.antisymmetry, report.jacobi, report.grading] == triples, (kind, n, seed, tol)
                for got, want in ((report.max_antisymmetry_residual, max_anti), (report.max_jacobi_residual, max_jac)):
                    assert math.isclose(got, want, rel_tol=1e-12) or math.isnan(got) and math.isnan(want)


def test_validate_of_a_valid_algebra_scans_no_triples(monkeypatch):
    scans = []
    argwhere = np.argwhere
    monkeypatch.setattr(np, "argwhere", lambda mask: scans.append(mask.shape) or argwhere(mask))
    so5 = build_so5()
    assert so5.validate(0.0).ok and _random_algebra("valid", 12, 0).validate(1e-9).ok
    assert scans == []
    broken = np.array(so5.structure)
    broken[0, 2, 5] += 0.1
    broken[2, 0, 5] -= 0.1
    report = GradedLieAlgebra(so5.names, broken, so5.grading).validate(1e-12)
    assert report.jacobi and not report.antisymmetry and not report.grading
    assert scans == [(10, 10, 10)]  # the Jacobi rows alone


def _three_product_jacobi(c: np.ndarray) -> np.ndarray:
    """|jac[i, j, l, :]| with each Jacobi term its own matrix product laid out as (i, j, l, k), added in the order
    [[e_i,e_j],e_l] + [[e_j,e_l],e_i] + [[e_l,e_i],e_j]: the reference for one product and its two rotations."""
    n = len(c)
    pairs, ct = c.reshape(n * n, n), c.transpose(1, 0, 2)  # ct[b, a] = c[a, b]
    jac = (pairs @ c.reshape(n, n * n)).reshape(n, n, n, n)
    jac += np.matmul(pairs, ct).reshape(n, n, n, n)
    jac += np.matmul(ct[:, None], ct[None, :])
    return np.abs(jac)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 16, 24])
def test_validate_forms_the_jacobi_sum_of_the_three_products(n):
    # the same terms added in the same order; only the dot products inside each matrix product may group
    # differently, so the largest residual agrees to a few rounding errors of the terms' sizes, and the
    # violating triples, judged away from their row maxima, agree exactly
    rng = np.random.default_rng([25, n])
    names, grading = [f"e{i}" for i in range(n)], [GradingLabel((False, False))] * n
    idx = np.arange(n)
    increasing = (idx[:, None, None] < idx[None, :, None]) & (idx[None, :, None] < idx[None, None, :])
    for _ in range(4):
        c = rng.standard_normal((n, n, n)) * 10.0 ** rng.uniform(-3, 3)
        want = _three_product_jacobi(c)
        size = 3.0 * float((np.abs(c).reshape(n * n, n) @ np.abs(c).reshape(n, n * n)).max())
        row_max = want.max(axis=3)
        for tol in (0.0, float(np.median(row_max)) * (1.0 + 1e-6)):
            report = GradedLieAlgebra(names, c, grading).validate(tol)
            assert abs(report.max_jacobi_residual - want.max()) <= 4 * n * np.finfo(float).eps * size
            assert report.jacobi == tuple(map(tuple, np.argwhere((row_max > tol) & increasing).tolist()))


def test_validate_peak_memory_stays_within_the_dense_oracle():
    # dim 32: each (i, j, l, k) array holds 32^4 floats, 8 MiB
    rng = np.random.default_rng(32)
    alg = GradedLieAlgebra([f"e{i}" for i in range(32)], rng.standard_normal((32, 32, 32)),
                           [GradingLabel(tuple(bits)) for bits in rng.integers(0, 2, (32, 2)).tolist()])
    peaks = []
    for check in (lambda: alg.validate(0.3), lambda: dense_validate(alg.structure, alg.grading, 0.3)):
        tracemalloc.start()
        try:
            check()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.1 * peaks[1], peaks


# ----------------------------------------------------------------------
# JSON round trip
# ----------------------------------------------------------------------

def test_json_round_trip_bit_exact():
    alg = build_so5()
    doc = json.dumps(algebra_to_dict(alg))
    back = algebra_from_dict(json.loads(doc))
    assert back.names == alg.names
    assert back.grading == alg.grading
    assert np.array_equal(back.structure, alg.structure)


def _rescaled_so5(seed: int) -> GradedLieAlgebra:
    """so(5) in the basis lambda_i e_i: constants c[i, j, k] lambda_i lambda_j / lambda_k, no longer integers."""
    base, lam = build_so5(), np.random.default_rng(seed).uniform(0.5, 2.0, 10)
    return GradedLieAlgebra(base.names, base.structure * np.multiply.outer(np.outer(lam, lam), 1.0 / lam), base.grading)


@pytest.mark.parametrize("alg", [build_so5(), _rescaled_so5(18)], ids=["so5", "rescaled so5"])
def test_structure_rows_are_python_numbers_that_round_trip_bit_exactly(alg):
    rows = algebra_to_dict(alg)["structure"]
    assert rows == rows_from_structure(alg.structure)
    assert all(type(i) is type(j) is type(k) is int and type(v) is float for i, j, k, v in rows)
    back = json.loads(json.dumps(rows))
    assert [v.hex() for *_, v in back] == [v.hex() for *_, v in rows]
    assert np.array_equal(algebra_from_dict(algebra_to_dict(alg)).structure, alg.structure)


def _shuffled_so5_rows() -> dict:
    doc = algebra_to_dict(build_so5())
    random.Random(23).shuffle(doc["structure"])
    return doc


_H_M = {"dim": 2, "names": ["h", "m"], "grading": [[False], [True]]}  # [h, m] = m
_EDGE_DOCS = {
    "duplicate rows, the last wins": {**_H_M, "structure": [[0, 1, 1, 1], [1, 0, 1, -1], [0, 1, 1, 2.5], [1, 0, 1, -2.5]]},
    "a duplicate back to zero": {**_H_M, "structure": [[0, 1, 1, 1], [1, 0, 1, -1], [0, 1, 1, 0], [1, 0, 1, -0.0]]},
    "explicit zeros of both signs": {**_H_M, "structure": [[1, 1, 1, -0.0], [0, 1, 1, 0.5], [0, 0, 0, 0.0], [1, 0, 1, -0.5]]},
    "unsorted rows": _shuffled_so5_rows(),
    "dim 1": {"dim": 1, "names": ["x"], "grading": [[True, False]], "structure": [[0, 0, 0, -0.0]]},
    "dim 1, no rows": {"dim": 1, "names": ["x"], "grading": [[False]], "structure": []},
}


@pytest.mark.parametrize("case", list(_EDGE_DOCS))
def test_from_dict_and_to_dict_match_the_entry_by_entry_oracles(case):
    doc = json.loads(json.dumps(_EDGE_DOCS[case]))
    alg = algebra_from_dict(doc)
    # the bytes compare signed zeros as well
    assert alg.structure.tobytes() == structure_from_rows(doc["dim"], doc["structure"]).tobytes()
    assert alg.grading == tuple(GradingLabel(tuple(bits)) for bits in doc["grading"])
    rows = algebra_to_dict(alg)["structure"]
    expected = rows_from_structure(alg.structure)
    assert rows == expected and all(value != 0.0 for *_, value in rows)
    assert [[type(x) for x in row] for row in rows] == [[int, int, int, float]] * len(rows)
    assert [value.hex() for *_, value in rows] == [value.hex() for *_, value in expected]


def test_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        algebra_from_dict({"dim": 2, "names": ["a"]})
    with pytest.raises(ValueError):
        algebra_from_dict(
            {
                "dim": 1,
                "names": ["a"],
                "grading": [[False]],
                "structure": [[0, 0, 5, 1.0]],
            }
        )
