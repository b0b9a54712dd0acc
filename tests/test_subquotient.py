import itertools
import random
import re
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from band_tables import act_l01_fastpath
from gtsl3 import hom, liealg, subquotient
from gtsl3.errors import RequiresIntegralMu2
from gtsl3.hom import ModuleDescriptor
from gtsl3.explore import generate
from gtsl3.module import (
    ACTION_TABLE,
    BASIS_ACTIONS,
    Box,
    ModuleElement,
    Params,
    act,
    basis_vector,
)
from gtsl3.serialize import parse_set_expr
from gtsl3.subquotient import LBarSet, act_truncated, classify, is_closed

P0 = Params(Fraction(1, 3), Fraction(0))
BOX = Box.radius(3)


class TestLBarSet:
    def test_membership_forms(self):
        assert LBarSet.ge(0).contains(5) and not LBarSet.ge(0).contains(-1)
        assert LBarSet.le(-1).contains(-7) and not LBarSet.le(-1).contains(0)
        assert LBarSet.between(0, 1).contains(1) and not LBarSet.between(0, 1).contains(2)
        assert LBarSet.eq(1).contains(1) and not LBarSet.eq(1).contains(0)

    def test_union_merges_adjacent_intervals(self):
        assert LBarSet([(1, 1), (0, 0)]) == LBarSet.between(0, 1)
        assert LBarSet([(None, 0), (1, None)]) == LBarSet.all()
        assert LBarSet([(0, 2), (5, 5), (3, 3)]).intervals == ((0, 3), (5, 5))

    def test_complement(self):
        assert LBarSet.ge(0).complement() == LBarSet.le(-1)
        assert LBarSet.between(0, 1).complement() == LBarSet([(None, -1), (2, None)])
        assert LBarSet.all().complement() == LBarSet.empty()

    def test_difference_and_subset(self):
        assert LBarSet.le(1).difference(LBarSet.le(0)) == LBarSet.eq(1)

    def test_repr_of_a_single_run_parses_back(self):
        runs = ([LBarSet.between(a, b) for a in range(-3, 4) for b in range(a, 4)]
                + [f(c) for c in range(-3, 4) for f in (LBarSet.ge, LBarSet.le)])
        for J in runs:
            assert parse_set_expr(repr(J)) == J, repr(J)
        assert repr(LBarSet.between(1, 3)) == "lbar in 1..3"
        assert parse_set_expr(repr(LBarSet.all())) is None  # the full module

    def test_every_printed_set_reads_back_but_the_empty_one(self):
        """Each RUN_FORMS form alone and in every union of two or three
        runs reads back; the empty set's repr, alone or in a union, is
        refused as an empty interval is."""
        runs = [(None, None)] + [(lo, hi) for lo in (None, -2, 0, 3)
                                 for hi in (None, -2, 0, 3) if lo is None or hi is None
                                 or lo <= hi]
        forms = set()
        for n in (1, 2, 3):
            for chosen in itertools.combinations(runs, n):
                J = LBarSet(chosen)
                forms.update(form for form, _ in J.runs())
                assert parse_set_expr(repr(J)) == (None if J == LBarSet.all() else J), repr(J)
        assert forms == set(subquotient.RUN_FORMS)
        assert repr(LBarSet.empty()) == "lbar in {}"
        for text in ("lbar in {}", "lbar=0 | lbar in {}", "lbar in 3..1"):
            with pytest.raises(ValueError, match=re.escape(
                    f"cannot parse index set {text!r}: an interval is empty")):
                parse_set_expr(text)


SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)
run_ends = st.one_of(st.none(), st.integers(-6, 6))
run_lists = st.lists(st.tuples(run_ends, run_ends), max_size=4)
PROBES = (-10**6, *range(-12, 13), 10**6)


def _in_runs(lbar, runs):
    return any((lo is None or lbar >= lo) and (hi is None or lbar <= hi)
               for lo, hi in runs)


@SETTINGS
@given(run_lists, run_lists)
def test_set_algebra_equals_brute_force_membership(runs_a, runs_b):
    A, B = LBarSet(runs_a), LBarSet(runs_b)
    for lbar in PROBES:
        a, b = _in_runs(lbar, runs_a), _in_runs(lbar, runs_b)
        assert A.contains(lbar) is a, lbar
        assert A.complement().contains(lbar) is not a, lbar
        assert A.difference(B).contains(lbar) is (a and not b), lbar
    # every end lies in -6..6, so the probes decide equality
    same = all(_in_runs(x, runs_a) == _in_runs(x, runs_b) for x in PROBES)
    assert (A == B) is same
    if same:
        assert hash(A) == hash(B)


@SETTINGS
@given(run_lists)
def test_intervals_are_sorted_disjoint_and_non_adjacent(runs):
    J = LBarSet(runs)
    runs_out = J.intervals
    assert isinstance(runs_out, tuple)
    for lo, hi in runs_out:
        assert lo is None or hi is None or lo <= hi
    for (_, hi), (lo, _) in zip(runs_out, runs_out[1:]):
        assert hi is not None and lo is not None and hi + 1 < lo
    assert LBarSet(reversed(runs_out)) == J
    assert LBarSet(reversed(runs_out)).intervals == runs_out
    assert hash(LBarSet(list(runs) + list(runs_out))) == hash(J)


@SETTINGS
@given(run_lists)
def test_repr_of_any_set_parses_back(runs):
    J = LBarSet(runs)
    if J.intervals:
        assert parse_set_expr(repr(J)) == (None if J == LBarSet.all() else J), repr(J)


def test_truncated_action_frozen_examples():
    band = LBarSet.between(0, 1)
    out = act_truncated("f1", basis_vector(P0, "w", (0, 1, 0)), band)
    assert out.terms == {(1, 1, 0): Fraction(-4, 3), (0, 0, 1): Fraction(-1)}
    out = act_truncated("f1", basis_vector(P0, "w", (0, 0, 0)), LBarSet.eq(0))
    assert out.terms == {(1, 0, 0): Fraction(-1, 3)}
    assert act_truncated("e2", basis_vector(P0, "w", (0, 0, 0)), LBarSet.ge(0)).is_zero()


@pytest.mark.parametrize("basis", ["w", "eta"])
def test_the_truncated_action_refuses_an_unknown_generator_even_on_zero(basis):
    for v in (ModuleElement(P0, basis), basis_vector(P0, basis, (0, 0, 0))):
        with pytest.raises(ValueError, match="unknown generator 'zz'"):
            act_truncated("zz", v, LBarSet.eq(0))


def test_hom_reads_the_one_descriptor_type_of_subquotient():
    assert hom.ModuleDescriptor is subquotient.ModuleDescriptor is ModuleDescriptor


def test_truncation_preconditions():
    with pytest.raises(ValueError):
        act_truncated("e1", basis_vector(P0, "w", (0, 5, 0)), LBarSet.between(0, 1))
    generic = Params(Fraction(1, 3), Fraction(1, 5))
    with pytest.raises(RequiresIntegralMu2):
        act_truncated("e1", basis_vector(generic, "w", (0, 0, 0)), LBarSet.ge(0))


def test_closure_of_the_nine_sets():
    expected = {
        ("ge", 0): True,
        ("eq", 0): True,
        ("between", (0, 1)): True,
        ("le", 1): True,
        ("le", 0): True,
        ("ge", 1): False,
        ("ge", 2): False,
        ("le", -1): False,
        ("eq", 1): False,
    }
    for (kind, arg), closed in expected.items():
        J = getattr(LBarSet, kind)(*(arg if isinstance(arg, tuple) else (arg,)))
        verdict = is_closed(ModuleDescriptor(P0, J=J), BOX)
        assert bool(verdict) is closed, (kind, arg)
        if not closed:
            assert verdict.witnesses


def test_closure_witness_for_the_middle_layer():
    verdict = is_closed(ModuleDescriptor(P0, J=LBarSet.eq(1)), BOX)
    # f1 pushes w_{k, mu2+1, m} into the lbar = 0 level at m+1
    assert any(
        gen == "f1" and src[1] == 1 and dst == (src[0], 0, src[2] + 1)
        for src, gen, dst in verdict.witnesses
    )


def test_eta_closure_mirrors_w_closure():
    # dual of a submodule is a quotient: closed sets swap accordingly
    assert not is_closed(ModuleDescriptor(P0, dual=True, J=LBarSet.ge(0)), BOX).closed
    assert is_closed(ModuleDescriptor(P0, dual=True, J=LBarSet.ge(1)), BOX).closed
    assert is_closed(ModuleDescriptor(P0, dual=True, J=LBarSet.ge(2)), BOX).closed
    assert is_closed(ModuleDescriptor(P0, dual=True, J=LBarSet.le(-1)), BOX).closed


def test_classification_matches_the_structure_list():
    expected = [
        (LBarSet.ge(0), "submodule"),
        (LBarSet.eq(0), "submodule"),
        (LBarSet.between(0, 1), "submodule"),
        (LBarSet.le(1), "submodule"),
        (LBarSet.le(0), "submodule"),
        (LBarSet.ge(1), "quotient"),
        (LBarSet.ge(2), "quotient"),
        (LBarSet.le(-1), "quotient"),
        (LBarSet.eq(1), "subquotient"),
    ]
    for J, kind in expected:
        assert classify(J, BOX, P0) == kind, repr(J)
    # single layers away from the blocked boundaries are not subquotients:
    # no pair of closed sets carves them out
    assert classify(LBarSet.eq(2), BOX, P0) == "none"
    assert classify(LBarSet.eq(-1), BOX, P0) == "none"


def _classify_by_interval_search(J, box, p):
    """The classification as a search over every interval J2 containing J
    for one with J2 and J2 minus J both closed."""
    closed = lambda S: bool(is_closed(ModuleDescriptor(p, J=S), box))
    if closed(J):
        return "submodule"
    if closed(J.complement()):
        return "quotient"
    levels = range(box.lmin - p.mu2_int(), box.lmax - p.mu2_int() + 1)
    for lo in [None, *levels]:
        for hi in [*levels, None]:
            J2 = LBarSet([(lo, hi)])
            if (J2.intervals and not J.difference(J2).intervals
                    and closed(J2) and closed(J2.difference(J))):
                return "subquotient"
    return "none"


@pytest.mark.parametrize("mu2", [0, 3])
def test_classify_equals_the_interval_search_on_intervals_and_half_lines(mu2):
    p = Params(Fraction(1, 3), mu2)
    ends = range(-2, 3)
    sets = ([LBarSet.between(a, b) for a in ends for b in ends if a <= b]
            + [f(c) for c in ends for f in (LBarSet.ge, LBarSet.le)])
    for r in (1, 2, 3):
        box = Box.radius(r, mu2)
        for J in sets:
            if not any(J.contains(lbar) for lbar in range(-r, r + 1)):
                with pytest.raises(ValueError, match="window does not meet"):
                    classify(J, box, p)
                continue
            assert classify(J, box, p) == _classify_by_interval_search(J, box, p), (r, J)


def test_classify_refuses_a_set_that_misses_the_window():
    # no index of such a set is inspected, so closure would hold vacuously
    for J, r in ((LBarSet.eq(5), 3), (LBarSet.ge(9), 2), (LBarSet.le(-7), 3),
                 (LBarSet.empty(), 3)):
        with pytest.raises(ValueError, match="window does not meet the index set"):
            classify(J, Box.radius(r), P0)
    assert classify(LBarSet.eq(5), Box.radius(6), P0) == "none"


def test_the_full_index_set_is_closed_and_classify_refuses_it():
    for p in (P0, Params(Fraction(1, 3), Fraction(1, 5))):  # mu2 need not be integral
        for dual in (False, True):
            verdict = is_closed(ModuleDescriptor(p, dual), Box.radius(2))
            assert verdict.closed and verdict.witnesses == []
    with pytest.raises(ValueError, match="classify needs a proper index set, not 'full'"):
        classify(None, BOX, P0)


def test_classify_takes_the_least_closed_superset_of_a_union():
    # on the r = 1 window only lbar = 1 of J is visible: J is
    # {lbar <= -2, 0, 1} minus the submodule {0}, and no interval carves it out
    J = LBarSet([(None, -2), (1, 1)])
    assert _classify_by_interval_search(J, Box.radius(1), P0) == "none"
    assert classify(J, Box.radius(1), P0) == "subquotient"


def test_fastpath_equals_truncation_everywhere():
    rnd = random.Random(123)
    band = LBarSet.between(0, 1)
    for basis in ("w", "eta"):
        for _ in range(25):
            terms = {}
            for _ in range(rnd.randint(1, 3)):
                idx = (rnd.randint(-3, 3), rnd.randint(0, 1), rnd.randint(0, 3))
                terms[idx] = Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 5))
            v = ModuleElement(P0, basis, terms)
            for gen in liealg.GENERATORS:
                assert act_l01_fastpath(gen, v) == act_truncated(gen, v, band), (
                    basis,
                    gen,
                )


def test_fastpath_frozen_examples():
    out = act_l01_fastpath("e2", basis_vector(P0, "w", (0, 1, 1)))
    assert out.terms == {(0, 0, 1): Fraction(-1), (1, 1, 0): Fraction(-2)}
    out = act_l01_fastpath("f2", basis_vector(P0, "eta", (0, 0, 0)))
    assert out.terms == {(0, 1, 0): Fraction(1), (-1, 0, 1): Fraction(-1)}
    # formula value +7/3, confirmed by ambient truncation and duality
    out = act_l01_fastpath("e1", basis_vector(P0, "eta", (0, 1, 0)))
    assert out.terms == {(-1, 1, 0): Fraction(7, 3)}


def test_bracket_compatibility_inside_closed_sets():
    rnd = random.Random(55)
    for J in (LBarSet.ge(0), LBarSet.le(0), LBarSet.between(0, 1)):
        levels = [lv for lv in range(-3, 4) if J.contains(lv)]
        for _ in range(6):
            terms = {}
            for _ in range(rnd.randint(1, 3)):
                idx = (rnd.randint(-3, 3), rnd.choice(levels), rnd.randint(0, 3))
                terms[idx] = Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 5))
            v = ModuleElement(P0, "w", terms)
            for x, y in (("e1", "f1"), ("e2", "f2"), ("f12", "e2"), ("e12", "f1")):
                lhs = ModuleElement(P0, "w")
                for g, c in liealg.bracket({x: 1}, {y: 1}).items():
                    lhs = lhs + act_truncated(g, v, J).scale(c)
                rhs = act_truncated(x, act_truncated(y, v, J), J) - act_truncated(
                    y, act_truncated(x, v, J), J
                )
                assert lhs == rhs, (repr(J), x, y)


def test_indices_iteration_respects_the_set():
    idxs = ModuleDescriptor(P0, J=LBarSet.between(0, 1)).indices(Box.radius(2))
    assert all(0 <= l <= 1 for _, l, _ in idxs)
    assert len(idxs) == 5 * 2 * 3


NINE_SETS = (
    LBarSet.ge(0),
    LBarSet.eq(0),
    LBarSet.between(0, 1),
    LBarSet.le(1),
    LBarSet.le(0),
    LBarSet.ge(1),
    LBarSet.ge(2),
    LBarSet.le(-1),
    LBarSet.eq(1),
)
RAISING_LOWERING = ("e1", "e2", "f1", "f2", "e12", "f12")


def _random_set(rnd):
    """The union of up to three random runs, each end possibly unbounded."""
    def end():
        return None if rnd.random() < 0.2 else rnd.randint(-5, 5)
    return LBarSet([(end(), end()) for _ in range(rnd.randint(0, 3))])


@pytest.mark.parametrize("mu2", [0, -2])
def test_indices_are_the_per_index_filter_in_box_order(mu2):
    """indices(box) reads J once per l level; the list is the one that
    testing J at every index of the box, in box order, gives."""
    p = Params(Fraction(1, 3), Fraction(mu2))
    rnd = random.Random(17 + mu2)
    sets = [None, *NINE_SETS, *(_random_set(rnd) for _ in range(40))]
    for J in sets:
        desc = ModuleDescriptor(p, J=J)
        for _ in range(4):
            kmin, lmin = rnd.randint(-4, 2), mu2 + rnd.randint(-5, 3)
            box = Box(kmin, kmin + rnd.randint(-1, 4), lmin, lmin + rnd.randint(-1, 6),
                      rnd.randint(0, 3))
            assert desc.indices(box) == [idx for idx in box if desc.contains(idx)], (J, box)


def test_classify_and_generate_read_the_action_table_directly(monkeypatch):
    """On the module, both read module.ACTION_TABLE at call time, so a
    patched entry changes what they answer, and neither goes through
    BASIS_ACTIONS or ModuleDescriptor.action."""
    def refused(*args, **kwargs):
        raise AssertionError("the action was read through a wrapper")

    for basis in BASIS_ACTIONS:
        monkeypatch.setitem(BASIS_ACTIONS, basis, refused)
    monkeypatch.setattr(ModuleDescriptor, "action", refused)
    plain = ModuleDescriptor(P0)
    kinds = [classify(J, BOX, P0) for J in NINE_SETS]
    assert kinds == ["submodule"] * 5 + ["quotient"] * 3 + ["subquotient"]
    assert (0, -1, 0) not in generate([(0, 0, 0)], plain, BOX).reached
    # e2 lowers l by one with coefficient -lbar, zero on lbar = 0: make it 1
    (offset, _), *rest = ACTION_TABLE["w"]["e2"]
    assert offset == (0, -1, 0)
    monkeypatch.setitem(ACTION_TABLE["w"], "e2", ((offset, lambda q, m: Fraction(1)), *rest))
    assert classify(LBarSet.ge(0), BOX, P0) != "submodule"
    assert (0, -1, 0) in generate([(0, 0, 0)], plain, BOX).reached


def full_sweep_witnesses(J, action, box, t):
    """The closure sweep over every window index of J: the oracle for the
    boundary-level rule of is_closed."""
    witnesses = []
    for idx in box:
        if not J.contains(idx[1] - t):
            continue
        for gen in RAISING_LOWERING:
            for jdx, c in action(gen, idx):
                if c != 0 and not J.contains(jdx[1] - t):
                    witnesses.append((idx, gen, jdx))
    return witnesses


@pytest.mark.parametrize("mu2", [0, 2])
@pytest.mark.parametrize("basis", ["w", "eta"])
def test_boundary_level_closure_equals_the_full_sweep(basis, mu2):
    p = Params(Fraction(1, 3), Fraction(mu2))
    action = cache(lambda gen, idx: BASIS_ACTIONS[basis](gen, p, idx))
    sets = NINE_SETS + tuple(J.complement() for J in NINE_SETS)
    for r in range(2, 7):
        box = Box.radius(r, mu2)
        for J in sets:
            expected = full_sweep_witnesses(J, action, box, mu2)
            verdict = is_closed(ModuleDescriptor(p, basis == "eta", J), box)
            assert verdict.witnesses == expected, (repr(J), r)
            assert verdict.closed is not expected


@pytest.mark.parametrize("basis", ["u", "w", "eta"])
def test_no_action_term_moves_l_by_more_than_one(basis):
    for p in (P0, Params(Fraction(1, 3), Fraction(1, 5))):
        for idx in Box.radius(4):
            for gen in liealg.GENERATORS:
                for jdx, _ in BASIS_ACTIONS[basis](gen, p, idx):
                    assert abs(jdx[1] - idx[1]) <= 1, (gen, idx, jdx)


@pytest.mark.parametrize("mu2", [0, 3])
@pytest.mark.parametrize("basis", ["w", "eta"])
def test_truncated_action_is_the_action_with_out_of_set_terms_dropped(basis, mu2):
    p = Params(Fraction(1, 3), Fraction(mu2))
    rnd = random.Random(2024 + mu2)
    for J in NINE_SETS:
        levels = [lv for lv in range(-3, 4) if J.contains(lv)]
        for _ in range(6):
            terms = {}
            for _ in range(rnd.randint(1, 4)):
                idx = (rnd.randint(-3, 3), mu2 + rnd.choice(levels), rnd.randint(0, 3))
                terms[idx] = Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 5))
            v = ModuleElement(p, basis, terms)
            for gen in liealg.GENERATORS:
                kept = {
                    jdx: c for jdx, c in act(gen, v).terms.items()
                    if J.contains(jdx[1] - mu2)
                }
                assert act_truncated(gen, v, J) == ModuleElement(p, basis, kept), (
                    repr(J), gen)
