import gc
import itertools
import json
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from gtsl3 import liealg, module
from gtsl3.errors import BasisMismatch, NonGenericParameters, RequiresIntegralMu2
from gtsl3.hom import ModuleDescriptor, solve_intertwiner
from gtsl3.module import (
    Box,
    Line,
    ModuleElement,
    Params,
    act,
    act_lie,
    act_word,
    basis_vector,
    casimir_apply,
    eta_vector,
    gt_eigenvalue,
    u_to_w,
    u_vector,
    w_to_u,
    w_vector,
)
from gtsl3.registry import COLLISION
from gtsl3.scalars import MU1, MU2, RatFunc
from gtsl3.serialize import element_to_json

P = Params(Fraction(1, 3), Fraction(1, 5))


def rand_element(rnd, params, basis, radius=4):
    terms = {}
    for _ in range(rnd.randint(1, 3)):
        idx = (rnd.randint(-radius, radius), rnd.randint(-radius, radius),
               rnd.randint(0, radius))
        terms[idx] = Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 5))
    return ModuleElement(params, basis, terms)


def test_act_u_frozen_examples():
    assert act("e1", u_vector(P, 0, 0, 0)).terms == {(-1, 0, 0): Fraction(1, 3)}
    assert act("e2", u_vector(P, 0, 0, 1)).terms == {
        (0, -1, 1): Fraction(1, 5),
        (1, 0, 0): Fraction(1),
    }
    assert act("f12", u_vector(P, 0, 0, 0)).terms == {
        (0, 0, 1): Fraction(-8, 15),
        (1, 1, 0): Fraction(-1, 5),
    }


def test_cartan_frozen_examples():
    v = u_vector(P, 0, 0, 0)
    assert act("h1", v).terms == {(0, 0, 0): Fraction(7, 15)}
    assert act("h2", v).terms == {(0, 0, 0): Fraction(1, 15)}
    assert act_lie({"h1": 1, "h2": 1}, v).terms == {(0, 0, 0): Fraction(8, 15)}


def _cartan_by_roots(c1, c2, v):
    """c1*h1 + c2*h2 on v from the roots: the vector at (k, l, m) has
    eigenvalue -((kbar + m) alpha1(h) + (lbar + m) alpha2(h))."""
    a1h = liealg.ALPHA1[0] * c1 + liealg.ALPHA1[1] * c2
    a2h = liealg.ALPHA2[0] * c1 + liealg.ALPHA2[1] * c2
    p = v.params
    return ModuleElement(p, v.basis, {
        (k, l, m): -c * ((p.kbar(k) + m) * a1h + (p.lbar(l) + m) * a2h)
        for (k, l, m), c in v.terms.items()
    })


def test_cartan_matches_generator_action_on_random_elements():
    rnd = random.Random(5)
    for basis in ("u", "w", "eta"):
        for _ in range(10):
            v = rand_element(rnd, P, basis)
            assert act_lie({"h1": 1}, v) == _cartan_by_roots(1, 0, v)
            h = {"h1": Fraction(2, 3), "h2": Fraction(1, 2)}
            assert act_lie(h, v) == _cartan_by_roots(*h.values(), v)


def test_act_w_frozen_examples():
    assert act("f12", w_vector(P, 0, 0, 0)).terms == {(0, 0, 1): Fraction(-8, 15)}
    assert act("e1", w_vector(P, 0, 0, 1)).terms == {
        (-1, 0, 1): Fraction(1, 3),
        (0, 1, 0): Fraction(-27, 92),
    }
    assert act("e12", w_vector(P, 0, 0, 0)).is_zero()


def test_w_formula_symmetry_under_1_2_interchange():
    # swapping (1<->2, k<->l) maps the e1-line to the e2-line with the sign
    # flipped on the m-shifted term
    rnd = random.Random(9)
    for _ in range(20):
        k, l, m = rnd.randint(-3, 3), rnd.randint(-3, 3), rnd.randint(0, 3)
        e1 = act("e1", w_vector(P, k, l, m)).terms
        swapped = Params(P.mu2, P.mu1)
        e2 = act("e2", w_vector(swapped, l, k, m)).terms
        assert e1.get((k - 1, l, m), 0) == e2.get((l, k - 1, m), 0)
        assert e1.get((k, l + 1, m - 1), 0) == -e2.get((l + 1, k, m - 1), 0)


def test_act_word_eigen_examples():
    assert act_word(("f12", "e12"), w_vector(P, 0, 0, 1)).terms == {
        (0, 0, 1): Fraction(8, 15)
    }
    assert act_word(("f12", "e12"), w_vector(P, 5, -2, 0)).is_zero()
    v = w_vector(P, 1, 2, 3)
    assert act_word((), v) == v


def test_basis_change_frozen_examples():
    assert w_to_u(w_vector(P, 0, 0, 0)).terms == {(0, 0, 0): Fraction(1)}
    assert w_to_u(w_vector(P, 0, 0, 1)).terms == {
        (0, 0, 1): Fraction(1),
        (1, 1, 0): Fraction(3, 8),
    }
    v = w_vector(P, 2, -1, 3)
    assert u_to_w(w_to_u(v)) == v


def test_basis_change_truncates_for_small_negative_lbar():
    # for -lbar in {0, ..., m} the expansion stops at n = -lbar because the
    # raising factorial of lbar vanishes beyond it
    p = Params(Fraction(1, 3), Fraction(0))
    out = w_to_u(w_vector(p, 0, -1, 3))  # lbar = -1: only n <= 1 survives
    assert set(out.terms) == {(0, -1, 3), (1, 0, 2)}
    out0 = w_to_u(w_vector(p, 2, 0, 3))  # lbar = 0: w equals u outright
    assert set(out0.terms) == {(2, 0, 3)}


def test_roundtrip_specialized_window():
    for k in range(-3, 4):
        for l in range(-3, 4):
            for m in range(4):
                w = w_vector(P, k, l, m)
                assert u_to_w(w_to_u(w)) == w
                u = u_vector(P, k, l, m)
                assert w_to_u(u_to_w(u)) == u


def test_roundtrip_symbolic_sample():
    params = Params.symbolic()
    for idx in [(0, 0, 0), (2, -1, 3), (-2, 2, 4), (1, 1, 5)]:
        w = ModuleElement(params, "w", {idx: Fraction(1)})
        assert u_to_w(w_to_u(w)) == w


def test_gt_eigenvalue_frozen():
    assert gt_eigenvalue((0, 0, 0), P) == (Fraction(7, 15), Fraction(1, 15), 0)
    assert gt_eigenvalue((0, 0, 1), P) == (
        Fraction(-8, 15),
        Fraction(-14, 15),
        Fraction(8, 15),
    )


def test_gt_word_realizes_eigenvalue_triple():
    rnd = random.Random(2)
    for params in (P, Params.symbolic()):
        for _ in range(10):
            idx = (rnd.randint(-4, 4), rnd.randint(-4, 4), rnd.randint(0, 4))
            ev = gt_eigenvalue(idx, params)
            v = w_vector(params, *idx)
            assert act_word(("f12", "e12"), v) == v.scale(ev[2])
            # h1 and h2 act by the same weight in all three bases
            for b in (u_vector(params, *idx), v, eta_vector(params, *idx)):
                assert act("h1", b) == b.scale(ev[0]), b.basis
                assert act("h2", b) == b.scale(ev[1]), b.basis


def test_gt_eigenvalue_reads_f12_after_e12_from_the_w_table(monkeypatch):
    before = gt_eigenvalue((1, 2, 3), P)
    doubled = tuple((offset, lambda q, m, c=c: 2 * c(q, m))
                    for offset, c in module.ACTION_TABLE["w"]["f12"])
    monkeypatch.setitem(module.ACTION_TABLE["w"], "f12", doubled)
    after = gt_eigenvalue((1, 2, 3), P)
    assert after[:2] == before[:2]
    assert after[2] == 2 * before[2] != 0


def test_eigenvalue_collision_at_integral_sum():
    pc = Params(Fraction(1, 3), Fraction(2, 3))
    assert gt_eigenvalue((0, 0, 3), pc) == gt_eigenvalue((2, 2, 1), pc)
    assert gt_eigenvalue((0, 0, 3), P) != gt_eigenvalue((2, 2, 1), P)


def test_w_action_is_the_conjugated_u_action():
    rnd = random.Random(17)
    for _ in range(8):
        v = rand_element(rnd, P, "w", radius=3)
        for gen in liealg.GENERATORS:
            assert act(gen, v) == u_to_w(act(gen, w_to_u(v))), gen


def test_bracket_compatibility_sampled():
    rnd = random.Random(31)
    for basis in ("u", "w"):
        elements = [rand_element(rnd, P, basis) for _ in range(5)]
        for x in liealg.GENERATORS:
            for y in liealg.GENERATORS:
                bxy = liealg.bracket({x: 1}, {y: 1})
                for v in elements:
                    assert act_lie(bxy, v) == act(x, act(y, v)) - act(y, act(x, v))


def test_casimir_commutes_with_generators():
    rnd = random.Random(23)
    for basis in ("u", "w"):
        v = rand_element(rnd, P, basis, radius=2)
        for gen in ("e1", "f12", "h2"):
            assert casimir_apply(act(gen, v)) == act(gen, casimir_apply(v))


def test_casimir_scalar_is_constant_and_zero():
    values = set()
    for basis in ("u", "w"):
        for idx in [(0, 0, 0), (3, -2, 4), (1, 1, 0), (-2, 0, 2)]:
            v = ModuleElement(P, basis, {idx: Fraction(1)})
            out = casimir_apply(v)
            assert set(out.terms) <= {idx}
            values.add(out.terms.get(idx, Fraction(0)))
    assert values == {0}
    assert casimir_apply(ModuleElement(P, "w")).is_zero()


def test_nongeneric_parameters_rejected_for_w():
    bad = Params(Fraction(1, 3), Fraction(2, 3))
    for make in (lambda: w_vector(bad, 0, 0, 0),
                 lambda: eta_vector(bad, 0, 0, 0),
                 lambda: ModuleElement(bad, "w", {(0, 0, 0): Fraction(1)}),
                 lambda: ModuleElement(bad, "w", {}),
                 lambda: ModuleElement(bad, "eta", {}),
                 lambda: ModuleDescriptor(bad),
                 lambda: ModuleDescriptor(bad, dual=True),
                 lambda: u_to_w(u_vector(bad, 0, 0, 0)),
                 lambda: u_to_w(ModuleElement(bad, "u"))):
        with pytest.raises(NonGenericParameters):
            make()
    # the u-basis action needs no genericity at all, and gt_eigenvalue
    # answers on the line too
    assert act("f1", u_vector(bad, 0, 0, 0)) == ModuleElement(
        bad, "u", {(1, 0, 0): Fraction(1, 3), (0, -1, 1): Fraction(2, 3)})
    assert casimir_apply(ModuleElement(bad, "u")).is_zero()
    # (-2 kbar + lbar - m, kbar - 2 lbar - m, -m (kbar + lbar + m - 1)) at (0, 0, 1)
    assert gt_eigenvalue((0, 0, 1), bad) == (-1, 0, 1)


def test_genericity_is_enforced_on_every_call():
    bad = Params(Fraction(1, 3), Fraction(2, 3))
    for _ in range(2):  # the first call works the fact out, the second reads it
        with pytest.raises(NonGenericParameters):
            act("e1", ModuleElement(bad, "w", {(0, 0, 0): Fraction(1)}))
        with pytest.raises(NonGenericParameters):
            w_to_u(ModuleElement(bad, "w", {(0, 0, 0): Fraction(1)}))
        with pytest.raises(NonGenericParameters):
            solve_intertwiner(ModuleDescriptor(bad, dual=True),
                              ModuleDescriptor(bad), Box.radius(2))


def test_mu2_int_raises_on_every_call_for_non_integral_mu2():
    p = Params(Fraction(1, 3), Fraction(1, 5))
    for _ in range(3):
        with pytest.raises(RequiresIntegralMu2):
            p.mu2_int()
    assert Params(Fraction(1, 3), Fraction(-2)).mu2_int() == -2


def test_basis_mismatch_and_m_guard():
    with pytest.raises(BasisMismatch):
        u_vector(P, 0, 0, 0) + w_vector(P, 0, 0, 0)
    with pytest.raises(BasisMismatch):
        u_vector(P, 0, 0, 0) + u_vector(Params(Fraction(1, 7), Fraction(1, 5)), 0, 0, 0)
    with pytest.raises(ValueError):
        ModuleElement(P, "u", {(0, 0, -1): Fraction(1)})


@pytest.mark.parametrize("mu1, mu2", [(1 / 3, 1 / 5), ("1/3", "0.1"), (Fraction(1, 3), 0.0)])
def test_parameters_are_exact_scalars(mu1, mu2):
    with pytest.raises(TypeError, match="is not an exact scalar"):
        Params(mu1, mu2)
    p = Params(True, Fraction(1, 5))  # a bool is the int it equals
    assert p.mu1 == 1 and type(p.mu1) is Fraction


@pytest.mark.parametrize("c", [0.5, 0.0, "1/2"])
def test_element_coefficients_are_exact_scalars(c):
    with pytest.raises(TypeError, match=f"{c!r} is not an exact scalar"):
        ModuleElement(P, "u", {(0, 0, 0): c})
    v = ModuleElement(P, "u", {(0, 0, 0): True, (1, 0, 0): MU1})
    assert type(v.terms[(0, 0, 0)]) is int and v.terms[(1, 0, 0)] == MU1


@pytest.mark.parametrize("c", [0.5, 0.0, "2", None])
def test_an_element_is_scaled_by_exact_scalars_only(c):
    v = u_vector(P, 0, 0, 0)
    for scaled in (lambda: v.scale(c), lambda: c * v):
        with pytest.raises(TypeError, match=f"{c!r} is not an exact scalar"):
            scaled()
    assert (Fraction(1, 2) * v).terms == {(0, 0, 0): Fraction(1, 2)}
    assert v.scale(MU1).terms == {(0, 0, 0): MU1} and v.scale(True) == v


def test_element_algebra_drops_zeros():
    v = u_vector(P, 0, 0, 0)
    assert (v - v).is_zero()
    assert (v + v).terms == {(0, 0, 0): Fraction(2)}
    assert v.scale(0).is_zero()
    assert list(Box.radius(1)) == sorted(Box.radius(1))
    assert Box.radius(2).contains((2, -2, 0)) and not Box.radius(2).contains((3, 0, 0))


# -- the orbit lemma: every coefficient reads k and l only through
# kbar = k - mu1 and lbar = l - mu2

def _orbit_mismatches(expand):
    """Indices (k, l, m), |k|, |l| <= 2 and m <= 3, where expand(params, idx),
    a list of (target, coefficient), differs over Q(mu1, mu2) from
    expand(Params(mu1 - k, mu2 - l), (0, 0, m)) shifted by (k, l)."""
    symbolic = Params.symbolic()
    bad = []
    for k in range(-2, 3):
        for l in range(-2, 3):
            shifted = Params(MU1 - k, MU2 - l)
            for m in range(4):
                got = dict(expand(symbolic, (k, l, m)))
                rep = {(i + k, j + l, n): c for (i, j, n), c in expand(shifted, (0, 0, m))}
                if got != rep:
                    bad.append((k, l, m))
    return bad


def _assert_action_orbit_lemma(basis):
    action = module.BASIS_ACTIONS[basis]
    for gen in liealg.GENERATORS:
        assert _orbit_mismatches(lambda p, idx: action(gen, p, idx)) == [], (basis, gen)


@pytest.mark.parametrize("basis", sorted(module.BASIS_ACTIONS))
def test_action_at_k_l_is_the_shifted_action_at_0_0(basis):
    _assert_action_orbit_lemma(basis)


@pytest.mark.parametrize("source, change", [("w", w_to_u), ("u", u_to_w)])
def test_change_of_basis_at_k_l_is_the_shifted_change_at_0_0(source, change):
    def expand(p, idx):
        return change(ModuleElement(p, source, {idx: Fraction(1)})).terms.items()
    assert _orbit_mismatches(expand) == []


def test_an_action_reading_mu1_directly_fails_the_orbit_lemma(monkeypatch):
    act_u = module.BASIS_ACTIONS["u"]

    def e1_reads_mu1(gen, p, idx):
        """The u-basis action with e1's coefficient -kbar written as -mu1."""
        if gen != "e1":
            return act_u(gen, p, idx)
        k, l, m = idx
        return [((k - 1, l, m), -p.mu1)]

    monkeypatch.setitem(module.BASIS_ACTIONS, "u", e1_reads_mu1)
    with pytest.raises(AssertionError, match="'u', 'e1'"):
        _assert_action_orbit_lemma("u")


def _table_terms():
    for basis, entries in module.ACTION_TABLE.items():
        for gen, entry in entries.items():
            for offset, coefficient in entry:
                yield (basis, gen, offset), coefficient


def test_every_table_coefficient_has_degree_at_most_one_in_m():
    """The degree bound of the registry docstring: c(m+2) - 2c(m+1) + c(m)
    vanishes over Q(mu1, mu2) at the orbit representative, m = 0..4."""
    q = Line(-MU1, -MU2)
    for term, c in _table_terms():
        for m in range(5):
            assert c(q, m + 2) - 2 * c(q, m + 1) + c(q, m) == 0, (term, m)


def test_every_generator_is_in_the_table_and_moves_each_index_by_at_most_one():
    """The u- and w-tables list every generator, and so does TAU, through
    which the eta action reads the w-table."""
    for basis in ("u", "w"):
        assert set(module.ACTION_TABLE[basis]) == set(liealg.GENERATORS), basis
    assert set(module.TAU) == set(liealg.GENERATORS)
    for (basis, gen, offset), _ in _table_terms():
        assert all(abs(d) <= 1 for d in offset), (basis, gen, offset)


def test_an_unknown_generator_is_refused_before_any_term_is_read():
    for v in (ModuleElement(P, "w"), ModuleElement(P, "eta"), w_vector(P, 0, 0, 0),
              u_vector(P, 0, 0, 0)):
        with pytest.raises(ValueError, match="unknown generator 'zz'"):
            act("zz", v)
    for word in (("zz", "e12"), ("e12", "zz")):  # e12 kills m = 0 first
        with pytest.raises(ValueError, match="unknown generator 'zz'"):
            act_word(word, w_vector(P, 0, 0, 0))
    with pytest.raises(ValueError, match="unknown generator 'zz'"):
        act_lie({"zz": 1}, ModuleElement(P, "u"))


# ---------------------------------------------------------------------------
# the eta action is read off the w-table through tau; the paper's eta
# formulas, typed by hand, are the oracle of that derivation

def _eta_den(kb, lb):
    return (kb + lb - 1) * (kb + lb - 2)


HAND_ETA = {
    "h1": (((0, 0, 0), lambda kb, lb, m: -2 * kb + lb - m),),
    "h2": (((0, 0, 0), lambda kb, lb, m: kb - 2 * lb - m),),
    "e1": (((-1, 0, 0), lambda kb, lb, m:
            -(kb - 1) * (kb - 2) * (kb + lb + m - 1) / _eta_den(kb, lb)),
           ((0, 1, -1), lambda kb, lb, m: lb + 1)),
    "e2": (((0, -1, 0), lambda kb, lb, m:
            -(lb - 1) * (lb - 2) * (kb + lb + m - 1) / _eta_den(kb, lb)),
           ((1, 0, -1), lambda kb, lb, m: -(kb + 1))),
    "f1": (((1, 0, 0), lambda kb, lb, m: kb + 1),
           ((0, -1, 1), lambda kb, lb, m:
            (m + 1) * (lb - 1) * (lb - 2) / _eta_den(kb, lb))),
    "f2": (((0, 1, 0), lambda kb, lb, m: lb + 1),
           ((-1, 0, 1), lambda kb, lb, m:
            -(m + 1) * (kb - 1) * (kb - 2) / _eta_den(kb, lb))),
    "e12": (((0, 0, -1), lambda kb, lb, m: kb + lb + m - 1),),
    "f12": (((0, 0, 1), lambda kb, lb, m: Fraction(-(m + 1))),),
}


def _rational_points(seed, count=6):
    """(kbar, lbar) pairs of random rationals with kbar + lbar not in Z."""
    rnd = random.Random(seed)
    points = []
    while len(points) < count:
        kb, lb = (Fraction(rnd.randint(-40, 40), rnd.randint(1, 12)) for _ in "kl")
        if (kb + lb).denominator != 1:
            points.append((kb, lb))
    return points


def _eta_mismatches():
    """(generator, point) for each generator whose eta action, looked up in
    BASIS_ACTIONS at call time, differs from HAND_ETA's targets, in entry
    order and with zeros dropped, at the first such point: b_(0,0,m) for
    random rational (kbar, lbar) = (-mu1, -mu2) and m = 0..30, and over
    Q(mu1, mu2) for m <= 4."""
    assert set(HAND_ETA) == set(liealg.GENERATORS)
    points = [(Params(-kb, -lb), m) for kb, lb in _rational_points(26) for m in range(31)]
    points += [(Params.symbolic(), m) for m in range(5)]
    bad = []
    for gen, hand in HAND_ETA.items():
        for p, m in points:
            kb, lb = p.kbar(0), p.lbar(0)
            want = [((dk, dl, m + dm), c) for (dk, dl, dm), h in hand if m + dm >= 0
                    for c in [h(kb, lb, m)] if c]
            if module.BASIS_ACTIONS["eta"](gen, p, (0, 0, m)) != want:
                bad.append((gen, (kb, lb, m)))
                break
    return bad


def test_the_eta_action_is_the_hand_typed_one():
    assert _eta_mismatches() == []


@pytest.mark.parametrize("mutate, broken", [
    # tau's sign dropped for every generator: -c where c was read
    (lambda monkeypatch: [monkeypatch.setitem(module.TAU, x, (y, 1))
                          for x, (y, _) in list(module.TAU.items())],
     {"h1", "h2", "e12", "f12"}),
    # every coefficient read at the source's line, that of b_(0,0,m), and
    # not at its target's
    (lambda monkeypatch: monkeypatch.setattr(
        Params, "line", lambda self, k, l, line=Params.line: line(self, 0, 0)),
     {"e1", "e2", "f1", "f2"}),
], ids=["sign-dropped", "source-line"])
def test_the_eta_oracle_fails_on_a_mutant_derivation(monkeypatch, mutate, broken):
    mutate(monkeypatch)
    assert {gen for gen, _ in _eta_mismatches()} == broken


def test_the_eta_oracle_fails_when_one_sign_of_tau_is_dropped(monkeypatch):
    monkeypatch.setitem(module.TAU, "e12", ("f12", 1))
    assert [gen for gen, _ in _eta_mismatches()] == ["e12"]


# ---------------------------------------------------------------------------
# the line contract: a coefficient reads (k, l) only through its Line, and
# the lines Params caches are no second source of truth

def test_every_coefficient_reads_a_cached_line_as_a_line_of_the_same_values():
    """Random rational points and the symbolic orbit representative
    (-mu1, -mu2): every table coefficient, those that the eta action reads
    included, has one value on Params.line(k, l) and on Line(kbar, lbar)."""
    rnd = random.Random(32)
    lines = [(Params.symbolic(), 0, 0)]
    for mu1, mu2 in _rational_points(32):
        lines += [(Params(mu1, mu2), rnd.randint(-3, 3), rnd.randint(-3, 3))
                  for _ in range(3)]
    for p, k, l in lines:
        cached, bare = p.line(k, l), Line(p.kbar(k), p.lbar(l))
        assert cached is p.line(k, l)
        for term, c in _table_terms():
            for m in range(4):
                assert c(cached, m) == c(bare, m), (p, k, l, term, m)


def test_gt_eigenvalue_works_out_no_w_ratio_at_an_integral_sum():
    """At mu1 + mu2 = 1 the w-table's ratio factors divide by
    s(s - 1) = 0 on the lines k + l in {1, 2}; gt_eigenvalue reads only the
    entries that need neither factor, so it answers on those lines too."""
    p = Params(*COLLISION)
    for k, l, m in itertools.product(range(-1, 3), range(-1, 3), range(3)):
        assert gt_eigenvalue((k, l, m), p)[2] == -m * (p.line(k, l).s + m - 1)
    assert len(p._lines) == 16 and all(q.ratios is None for q in p._lines.values())


def test_a_params_and_its_lines_are_freed_without_the_cycle_collector():
    """No line refers to a Params, so the two form no reference cycle, also
    after the eta action has read the lines next to its source.  Params has
    no weak reference slot, so a subclass that adds one is watched."""
    class Watched(Params):
        __slots__ = ("__weakref__",)

    p = Watched(Fraction(1, 3), Fraction(1, 5))
    act("f1", eta_vector(p, 0, 0, 1))  # the eta action reads neighbouring lines
    assert len(p._lines) > 1
    held = [r for q in p._lines.values() for r in gc.get_referents(q)]
    held += [x for r in held if isinstance(r, tuple) for x in r]  # the ratios
    assert not [r for r in held if isinstance(r, (Params, weakref.ref))]
    params = weakref.ref(p)
    gc.disable()
    try:
        del p
        assert params() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# every basis and generator on the orbit representatives, specialized and
# symbolic, and on the walls kbar or lbar in {0, 1, 2}, where coefficients
# vanish, against golden printed outputs

ACTION_CASES = [
    (P, [(0, 0, m) for m in range(3)]),
    (Params.symbolic(), [(0, 0, m) for m in range(3)]),
    (Params(Fraction(1, 3), 0), [(0, l, m) for l in range(3) for m in range(2)]),
    (Params(0, Fraction(1, 5)), [(k, 0, m) for k in range(3) for m in range(2)]),
    (Params(MU1, RatFunc(0)), [(0, l, 0) for l in range(3)]),
]
GOLDEN_ACTIONS = Path(__file__).parent / "golden" / "actions.json"


def _golden_action_entries():
    """JSON-ready [basis, gen, index, element_to_json(act(gen, b))]
    records, in case order."""
    out = []
    for params, indices in ACTION_CASES:
        for basis in ("u", "w", "eta"):
            for gen in liealg.GENERATORS:
                for idx in indices:
                    got = act(gen, basis_vector(params, basis, idx))
                    out.append([basis, gen, list(idx), element_to_json(got)])
    return out


def test_actions_print_the_golden_outputs():
    assert _golden_action_entries() == json.loads(GOLDEN_ACTIONS.read_text())


if __name__ == "__main__":
    # regenerate the golden file, one action a line:
    # PYTHONPATH=src python tests/test_module.py
    GOLDEN_ACTIONS.write_text(
        "[\n" + ",\n".join(json.dumps(e) for e in _golden_action_entries()) + "\n]\n")
