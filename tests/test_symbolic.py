"""Symbolic proofs on the closed forms of the oracles.

The four reduced Ledger equations of ``oracles.expected_reduced_terms`` are
evaluated on sympy symbols, with K kept as a symbol k bound by
4 t^2 k^2 = 4 t^4 - u^2.  Each equation becomes one fraction, and it
vanishes on a solution family if its numerator lies in the family's ideal,
saturated by t v w k (the auxiliary y with y t v w k = 1 removes the
components where a denominator vanishes).  Membership is decided by
reduction modulo a Groebner basis.
"""

import functools
import types

import pytest
import sympy as sp

from oracles import expected_reduced_terms

t, u, v, w, k, y = sp.symbols("t u v w k y")
_K_DEFINITION = 4 * t**2 * k**2 - 4 * t**4 + u**2
_S = v**2 + w**2  # S t^2

# Each family in (t, u, v, w), with V = v^2/t^2, W = w^2/t^2 and S = V + W.
FAMILIES = {
    "v = w": [w - v],
    # u = 0, V W = (S - 1)(9 - S)/8
    "u = 0": [u, 8 * v**2 * w**2 - (_S - t**2) * (9 * t**2 - _S)],
    # V W = S(4 - S)(3S - 1)/(8(8 - 3S)), u^2 = 4(8 - 7S + S^2)/(8 - 3S) t^4
    "u != 0": [
        8 * v**2 * w**2 * (8 * t**2 - 3 * _S) - _S * (4 * t**2 - _S) * (3 * _S - t**2),
        u**2 * (8 * t**2 - 3 * _S) - 4 * t**2 * (8 * t**4 - 7 * _S * t**2 + _S**2),
    ],
}


@functools.cache
def _numerators() -> list:
    point = types.SimpleNamespace(t=t, u=u, v=v, w=w, k_squared=t**2 - u**2 / (4 * t**2))
    equations = [sum(c * r for c, r in eq) for eq in expected_reduced_terms(point, sqrt=lambda _: k)]
    return [sp.expand(sp.numer(sp.together(e))) for e in equations]


def _basis(relations: list) -> sp.GroebnerBasis:
    gens = relations + [_K_DEFINITION, y * t * v * w * k - 1]
    basis = sp.groebner(gens, y, u, k, v, w, t, order="grevlex")
    assert list(basis.exprs) != [1], "the relations admit no point"
    return basis


@pytest.mark.parametrize("family", FAMILIES)
def test_reduced_system_vanishes_identically_on_the_family(family):
    basis = _basis(FAMILIES[family])
    assert [basis.reduce(n)[1] for n in _numerators()] == [0, 0, 0, 0]


def test_reduced_system_does_not_vanish_off_the_families():
    # the control: with K as the only relation, no equation reduces to zero
    basis = _basis([])
    assert all(basis.reduce(n)[1] != 0 for n in _numerators())
