"""The eta-basis against the w-basis.

``module.ACTION_TABLE["eta"]`` is built from the w-table through
``liealg.tau``, so the duality contract below tests that transform with the
derivation's own tau.  The independent evidence that the eta-action is the
paper's is the two hand-typed oracles: the eta formulas in
``tests/test_module.py`` and tau in ``tests/test_liealg.py``.
"""

import random
from fractions import Fraction

import pytest

from gtsl3 import liealg
from gtsl3.errors import BasisMismatch, NonGenericParameters
from gtsl3.module import (
    ModuleElement,
    Params,
    act,
    act_lie,
    act_word,
    eta_vector,
    gt_eigenvalue,
    pairing,
    w_vector,
)

P = Params(Fraction(1, 3), Fraction(1, 5))


def rand_element(rnd, basis, radius=4):
    terms = {}
    for _ in range(rnd.randint(1, 3)):
        idx = (rnd.randint(-radius, radius), rnd.randint(-radius, radius),
               rnd.randint(0, radius))
        terms[idx] = Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 5))
    return ModuleElement(P, basis, terms)


def test_eta_frozen_examples():
    assert act("f12", eta_vector(P, 0, 0, 0)).terms == {(0, 0, 1): Fraction(-1)}
    assert act("e12", eta_vector(P, 0, 0, 1)).terms == {(0, 0, 0): Fraction(-8, 15)}
    assert act("e12", eta_vector(P, 0, 0, 0)).is_zero()


def test_m_zero_case_splits():
    # at m = 0 the m-lowering pieces of e1, e2 disappear entirely
    e1 = act("e1", eta_vector(P, 2, 1, 0))
    assert set(e1.terms) == {(1, 1, 0)}
    e2 = act("e2", eta_vector(P, 2, 1, 0))
    assert set(e2.terms) == {(2, 0, 0)}
    # while at m > 0 they contribute
    assert (2, 2, 0) in act("e1", eta_vector(P, 2, 1, 1)).terms
    assert (3, 1, 0) in act("e2", eta_vector(P, 2, 1, 1)).terms


def test_pairing_normalization_and_disjoint_support():
    assert pairing(eta_vector(P, 0, 0, 0), w_vector(P, 0, 0, 0)) == 1
    assert pairing(eta_vector(P, 0, 0, 0), w_vector(P, 1, 0, 0)) == 0


def test_pairing_concrete_duality_instance():
    lhs = pairing(act("f1", eta_vector(P, 0, 0, 0)), w_vector(P, 1, 0, 0))
    rhs = -pairing(
        eta_vector(P, 0, 0, 0), act_lie(liealg.tau("f1"), w_vector(P, 1, 0, 0))
    )
    assert lhs == rhs != 0


def test_duality_contract_all_generators_random():
    # holds by construction of the eta-table, for whatever tau it was built with
    rnd = random.Random(77)
    for _ in range(15):
        d = rand_element(rnd, "eta")
        v = rand_element(rnd, "w")
        for gen in liealg.GENERATORS:
            lhs = pairing(act(gen, d), v)
            rhs = -pairing(d, act_lie(liealg.tau(gen), v))
            assert lhs == rhs, gen


def test_eta_carries_w_eigenvalues():
    for idx in [(0, 0, 0), (2, -1, 3), (-3, 2, 1)]:
        ev = gt_eigenvalue(idx, P)
        d = eta_vector(P, *idx)
        assert act("h1", d) == d.scale(ev[0])
        assert act("h2", d) == d.scale(ev[1])
        assert act_word(("f12", "e12"), d) == d.scale(ev[2])


def test_bracket_compatibility_eta_sampled():
    rnd = random.Random(13)
    elements = [rand_element(rnd, "eta") for _ in range(5)]
    for x in liealg.GENERATORS:
        for y in liealg.GENERATORS:
            bxy = liealg.bracket({x: 1}, {y: 1})
            for v in elements:
                assert act_lie(bxy, v) == act(x, act(y, v)) - act(y, act(x, v))


def test_eta_requires_generic_sum():
    bad = Params(Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(NonGenericParameters):
        act("f1", ModuleElement(bad, "eta", {(0, 0, 0): Fraction(1)}))


def test_pairing_rejects_wrong_bases():
    with pytest.raises(BasisMismatch):
        pairing(w_vector(P, 0, 0, 0), w_vector(P, 0, 0, 0))
    with pytest.raises(BasisMismatch):
        pairing(eta_vector(P, 0, 0, 0), eta_vector(P, 0, 0, 0))
