import json

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

from oracles import commutator, coords_from_matrix, skew_unit


# ----------------------------------------------------------------------
# GradingLabel group laws
# ----------------------------------------------------------------------

bits = st.lists(st.booleans(), min_size=1, max_size=5)


@given(bits)
def test_label_self_inverse(b):
    lab = GradingLabel(tuple(b))
    assert (lab * lab).is_identity


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
            assert np.array_equal(alg.project(out, [target]), out)


def test_h_bracket_m_stays_in_m():
    alg = build_so5()
    eye = np.eye(10)
    for h in alg.h_indices:
        for m in alg.m_indices:
            out = alg.bracket(eye[h], eye[m])
            assert np.array_equal(alg.project_m(out), out)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_validate_so5_clean_exact():
    report = build_so5().validate(0.0)
    assert report.ok
    assert report.max_jacobi_residual == 0.0
    assert report.max_antisymmetry_residual == 0.0
    assert report.summary() == "valid"


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


# ----------------------------------------------------------------------
# projection
# ----------------------------------------------------------------------

def test_project_masks_coordinates():
    alg = build_so5()
    from zksym.so5 import LABELS

    x = alg.basis_vector("X1") + alg.basis_vector("A1")
    out = alg.project(x, [LABELS["a"], LABELS["b"], LABELS["c"]])
    assert np.array_equal(out, alg.basis_vector("A1"))


def test_project_all_labels_is_identity():
    alg = build_so5()
    rng = np.random.default_rng(7)
    x = rng.standard_normal(10)
    assert np.array_equal(alg.project(x, alg.labels), x)


def test_project_idempotent():
    alg = build_so5()
    from zksym.so5 import LABELS

    rng = np.random.default_rng(8)
    x = rng.standard_normal(10)
    once = alg.project(x, [LABELS["a"], LABELS["c"]])
    assert np.array_equal(alg.project(once, [LABELS["a"], LABELS["c"]]), once)


def test_project_bracket_b1_c2_onto_identity_block_is_zero():
    # [g_b, g_c] lies in g_a, so the e-projection vanishes
    alg = build_so5()
    out = alg.bracket(alg.basis_vector("B1"), alg.basis_vector("C2"))
    assert np.array_equal(alg.project(out, [alg.identity_label]), np.zeros(10))
    assert np.any(out != 0)


def test_project_rejects_unknown_labels():
    alg = build_so5()
    with pytest.raises(ValueError):
        alg.project(np.zeros(10), [GradingLabel((True, True, True))])


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
    # the rows as formed entry by entry from numpy scalars
    nz = np.argwhere(alg.structure != 0.0)
    assert rows == [[int(i), int(j), int(k), float(alg.structure[i, j, k])] for i, j, k in nz]
    assert all(type(i) is type(j) is type(k) is int and type(v) is float for i, j, k, v in rows)
    back = json.loads(json.dumps(rows))
    assert [v.hex() for *_, v in back] == [v.hex() for *_, v in rows]
    assert np.array_equal(algebra_from_dict(algebra_to_dict(alg)).structure, alg.structure)


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
