import numpy as np
import pytest

from zksym import build_so5, matrix_of, vector_of
from zksym.algebra import GradingLabel
from zksym.so5 import LABELS, SO5_NAMES, basis_matrix

from oracles import SO5_LAYOUT, SO5_ORDER, commutator, coords_from_matrix, skew_unit


def test_dimension_and_names():
    alg = build_so5()
    assert alg.dim == 10
    assert alg.names == SO5_ORDER == SO5_NAMES


def test_grading_block_dimensions():
    alg = build_so5()
    dims = {name: len(alg.label_indices(lab)) for name, lab in LABELS.items()}
    assert dims == {"e": 2, "a": 4, "b": 2, "c": 2}


def test_matrix_of_b1():
    # B1 has its +1 in row 1, column 5 (1-based)
    alg = build_so5()
    m = matrix_of(alg.basis_vector("B1"))
    expected = np.zeros((5, 5))
    expected[0, 4] = 1.0
    expected[4, 0] = -1.0
    assert np.array_equal(m, expected) and np.array_equal(basis_matrix("B1"), expected)
    assert not np.signbit(m[m == 0.0]).any()  # each zero coordinate is +0.0 at both of its entries


def test_matrix_of_places_an_infinite_coordinate_at_its_two_entries():
    # each coordinate sits at its +1 entry and, negated, at its -1 entry: no product 0 * inf = NaN elsewhere
    for k, name in enumerate(SO5_NAMES):
        for value in (np.inf, -np.inf):
            x = np.zeros(10)
            x[k] = value
            (row, col), expected = SO5_LAYOUT[name], np.zeros((5, 5))
            expected[row, col], expected[col, row] = value, -value
            assert np.array_equal(matrix_of(x), expected), (name, value)


def test_matrix_vector_round_trip():
    alg = build_so5()
    rng = np.random.default_rng(3)
    for name in SO5_NAMES:
        x = alg.basis_vector(name)
        assert np.array_equal(vector_of(matrix_of(x)), x)
    for _ in range(10):
        x = rng.standard_normal(10)
        assert np.allclose(vector_of(matrix_of(x)), x, atol=0, rtol=0)


def test_bracket_equals_matrix_commutator_on_all_pairs():
    alg = build_so5()
    eye = np.eye(10)
    for i, ni in enumerate(SO5_NAMES):
        for j, nj in enumerate(SO5_NAMES):
            expected = coords_from_matrix(commutator(skew_unit(ni), skew_unit(nj)))
            assert np.array_equal(alg.bracket(eye[i], eye[j]), expected), (ni, nj)


def test_a_block_brackets_land_in_isotropy():
    alg = build_so5()
    e = GradingLabel.identity(alg.k)
    for i in ("A1", "A2", "A3", "A4"):
        for j in ("A1", "A2", "A3", "A4"):
            out = alg.bracket(alg.basis_vector(i), alg.basis_vector(j))
            assert all(alg.grading[k] == e for k in np.flatnonzero(out))
    # [A1, A4] vanishes outright
    assert np.array_equal(
        alg.bracket(alg.basis_vector("A1"), alg.basis_vector("A4")), np.zeros(10)
    )


def test_isotropy_is_abelian():
    alg = build_so5()
    out = alg.bracket(alg.basis_vector("X1"), alg.basis_vector("X2"))
    assert np.array_equal(out, np.zeros(10))


def test_grading_closure_holds():
    assert build_so5().validate(0.0).ok


def test_m_indices_are_the_non_identity_block():
    alg = build_so5()
    assert alg.m_indices == (2, 3, 4, 5, 6, 7, 8, 9)
    assert alg.h_indices == (0, 1)


def test_vector_of_rejects_non_skew():
    with pytest.raises(ValueError):
        vector_of(np.eye(5))
    m = np.zeros((5, 5))
    m[0, 1] = 1.0
    m[1, 0] = -1.0 + 1e-6
    with pytest.raises(ValueError):
        vector_of(m, tol=1e-9)
    assert vector_of(m, tol=1e-3)[0] == 1.0
    # a NaN entry compares False with tol, and m + m^T of an antisymmetric +-inf pair is NaN with a RuntimeWarning
    for value, mirror in ((np.nan, 0.0), (np.inf, -np.inf)):
        bad = np.zeros((5, 5))
        bad[0, 1], bad[1, 0] = value, mirror
        with pytest.raises(ValueError, match="^matrix is not finite$"):
            vector_of(bad)


def test_matrix_of_rejects_wrong_shape():
    with pytest.raises(ValueError):
        matrix_of(np.zeros(9))
    with pytest.raises(ValueError):
        vector_of(np.zeros((4, 4)))
