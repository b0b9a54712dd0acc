from fractions import Fraction

import pytest

from gtsl3 import explore, liealg
from gtsl3.errors import BasisMismatch
from gtsl3.explore import (
    character_table,
    characters_agree,
    exact_sequence_check,
    generate,
    product_formula_character,
    relaxed_verma_check,
    split_eigencomponents,
)
from gtsl3.hom import ModuleDescriptor
from gtsl3.module import Box, ModuleElement, Params, w_vector
from gtsl3.subquotient import LBarSet, act_truncated

P0 = Params(Fraction(1, 3), Fraction(0))
PG = Params(Fraction(1, 3), Fraction(1, 5))


class TestEigensplit:
    def test_two_components_separated_by_h1(self):
        v = w_vector(PG, 0, 0, 0) + w_vector(PG, 1, 0, 0)
        comps, sep = split_eigencomponents(v)
        assert len(comps) == 2
        assert sep == (1, 0, 0)
        triples = {c[0][0] for c in comps}
        assert triples == {Fraction(7, 15), Fraction(-23, 15)}

    def test_single_term(self):
        comps, _ = split_eigencomponents(w_vector(PG, 2, -1, 3))
        assert len(comps) == 1

    def test_same_index_collapses(self):
        v = w_vector(PG, 0, 0, 0) + w_vector(PG, 0, 0, 0).scale(Fraction(2))
        comps, _ = split_eigencomponents(v)
        assert len(comps) == 1
        assert comps[0][1].terms == {(0, 0, 0): Fraction(3)}

    def test_u_vectors_are_refused(self):
        # f12 e12 u_(0,0,1) = -(kbar+lbar) u_(0,0,1) - lbar u_(1,1,0): no eigenvector
        pc = Params(Fraction(1, 3), Fraction(2, 3))
        v = ModuleElement(pc, "u", {(0, 0, 3): Fraction(1), (2, 2, 1): Fraction(1)})
        with pytest.raises(BasisMismatch):
            split_eigencomponents(v)
        with pytest.raises(BasisMismatch):
            split_eigencomponents(ModuleElement(PG, "u", {(0, 0, 1): Fraction(1)}))


class TestGeneration:
    def test_generic_parameters_cover_from_any_start(self):
        desc = ModuleDescriptor(PG, dual=False)
        box = Box.radius(3)
        cert = generate([(2, -1, 3)], desc, box)
        assert cert.covers
        assert len(cert.reached) == 7 * 7 * 4

    def test_monotone_in_window_and_start_set(self):
        desc = ModuleDescriptor(P0, dual=False)
        small = generate([(0, -1, 0)], desc, Box.radius(2))
        large = generate([(0, -1, 0)], desc, Box.radius(3))
        assert set(small.reached) <= set(large.reached)
        more = generate([(0, -1, 0), (0, 2, 0)], desc, Box.radius(3))
        assert set(large.reached) <= set(more.reached)

    def test_integral_mu2_start_on_the_wall_stays_in_its_layer(self):
        desc = ModuleDescriptor(P0, dual=False)
        cert = generate([(0, 0, 0)], desc, Box.radius(3))
        assert not cert.covers
        assert {i[1] for i in cert.reached} == {0}

    def test_integral_mu2_start_below_reaches_only_lbar_le_0(self):
        desc = ModuleDescriptor(P0, dual=False)
        cert = generate([(0, -1, 0)], desc, Box.radius(3))
        assert {i[1] for i in cert.reached} == {-3, -2, -1, 0}
        assert {i[1] for i in cert.missing} == {1, 2, 3}

    def test_paths_record_how_indices_were_reached(self):
        desc = ModuleDescriptor(PG, dual=False)
        cert = generate([(0, 0, 0)], desc, Box.radius(2))
        idx = (1, 0, 0)
        assert idx in cert.paths
        parent, gen = cert.paths[idx]
        assert parent in set(cert.reached)

    def test_simple_layer_covers_from_one_start(self):
        desc = ModuleDescriptor(P0, dual=False, J=LBarSet.ge(2))
        cert = generate([(1, 3, 1)], desc, desc.window(3))
        assert cert.covers

    def test_empty_start_is_an_error(self):
        with pytest.raises(ValueError):
            generate([], ModuleDescriptor(PG, dual=False), Box.radius(2))


def bfs_over_all_generators(start, desc, box):
    """(reached, paths) of a breadth-first search that applies all eight
    generators, diagonal ones included."""
    allowed = set(desc.indices(box))
    reached, paths, frontier = set(start), {}, list(start)
    while frontier:
        nxt = []
        for idx in frontier:
            for gen in liealg.GENERATORS:
                for jdx in desc.action(gen, idx):
                    if jdx in allowed and jdx not in reached:
                        reached.add(jdx)
                        paths[jdx] = (idx, gen)
                        nxt.append(jdx)
        frontier = nxt
    return reached, paths


@pytest.mark.parametrize(
    "params, J",
    [(PG, None), (P0, None), (P0, LBarSet.ge(0)), (P0, LBarSet.eq(1)),
     (P0, LBarSet.between(0, 1)), (P0, LBarSet.le(-1))],
)
def test_generation_certificate_equals_search_over_all_generators(params, J):
    for dual in (False, True):
        desc = ModuleDescriptor(params, dual=dual, J=J)
        for r in (2, 3):
            box = desc.window(r)
            indices = desc.indices(box)
            for start in (indices[0], indices[len(indices) // 2], indices[-1]):
                cert = generate([start], desc, box)
                reached, paths = bfs_over_all_generators([start], desc, box)
                assert cert.reached == sorted(reached)
                assert cert.missing == sorted(set(indices) - reached)
                assert cert.paths == paths


class TestDualCyclicity:
    def test_integral_mu2_cyclic_vectors(self):
        box = Box.radius(3)
        for k0 in (-2, 0, 2):
            cert = generate([(k0, 0, 0)], ModuleDescriptor(P0, dual=True), box)
            assert cert.covers, k0

    def test_generic_parameters_any_start(self):
        cert = generate([(1, 0, 2)], ModuleDescriptor(PG, dual=True), Box.radius(3))
        assert cert.covers


class TestCharacters:
    def test_base_weight_has_multiplicity_one(self):
        desc = ModuleDescriptor(P0, dual=True, J=LBarSet.ge(0))
        table = character_table(desc, 4)
        assert table[(0, 0)] == 1

    def test_two_indices_share_the_weight_one_alpha2_below(self):
        # (0, mu2+1, 0) and (-1, mu2, 1) both sit at the base weight - alpha2
        desc = ModuleDescriptor(P0, dual=True, J=LBarSet.ge(0))
        table = character_table(desc, 4)
        assert table[(0, -1)] == 2

    def test_product_formula_matches_enumeration(self):
        desc = ModuleDescriptor(P0, dual=True, J=LBarSet.ge(0))
        assert characters_agree(character_table(desc, 6),
                                product_formula_character((0, 0), 6), 6) == []

    @pytest.mark.parametrize("shift", sorted({shift for *_, shift in explore._RV_CASES.values()}))
    def test_product_formula_is_the_full_expansion_on_the_reliable_range(self, shift):
        """Against the triple loop over every term (n, a, b), kept here as
        the oracle and restricted to |s| <= r, -r <= t <= 0: the shifts of
        the relaxed-Verma cases, (0, 0) among them, which character-formula
        expands too."""
        for r in range(9):
            pad, full = 3 * r, {}
            for n in range(-pad, pad + 1):
                for a in range(pad + 1):
                    for b in range(pad + 1 - a):
                        key = (n - a + shift[0], -(a + b) + shift[1])
                        full[key] = full.get(key, 0) + 1
            want = {(s, t): v for (s, t), v in full.items() if abs(s) <= r and -r <= t <= 0}
            assert product_formula_character(shift, r) == want, r

    def test_dual_and_plain_tables_agree(self):
        a = ModuleDescriptor(P0, dual=True, J=LBarSet.ge(0))
        b = ModuleDescriptor(P0, dual=False, J=LBarSet.ge(0))
        assert character_table(a, 4) == character_table(b, 4)


    def test_table_counts_every_index_of_each_weight(self):
        """Against enumeration of (k, lbar, m) over a box that holds every
        index of the weights |s| <= r, -r <= t <= 0 when lbar >= c."""
        r = 3
        for J in (LBarSet.ge(-2), LBarSet.eq(-1), LBarSet.between(-3, 1),
                  LBarSet(((-1, 0), (2, None))), LBarSet.ge(4)):
            c = J.intervals[0][0]
            reach = 2 * r - min(c, 0)
            expected = {}
            for k in range(-reach, reach + 1):
                for lbar in range(c, r + 1):
                    for m in range(r - c + 1):
                        key = (-(k + m), -(lbar + m))
                        if J.contains(lbar) and abs(key[0]) <= r and -r <= key[1] <= 0:
                            expected[key] = expected.get(key, 0) + 1
            assert character_table(ModuleDescriptor(P0, dual=True, J=J), r) == expected

    def test_sets_unbounded_below_are_refused(self):
        for J in (None, LBarSet.le(0), LBarSet(((None, -3), (0, 0)))):
            with pytest.raises(ValueError, match="bounded below"):
                character_table(ModuleDescriptor(P0, dual=False, J=J), 2)


class TestRelaxedVerma:
    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
    def test_case_passes(self, case):
        rep = relaxed_verma_check(case, P0, r=5)
        assert rep["verdict"] == "pass", rep

    def test_frozen_f1e1_eigenvalues(self):
        from gtsl3.subquotient import act_truncated

        cases = [
            (LBarSet.ge(0), (0, 0, 0), Fraction(-4, 9)),
            (LBarSet.ge(1), (1, 1, 0), Fraction(8, 9)),
            (LBarSet.ge(2), (0, 2, 0), Fraction(-28, 9)),
        ]
        for J, idx, expected in cases:
            v = ModuleElement(P0, "eta", {idx: Fraction(1)})
            out = act_truncated("f1", act_truncated("e1", v, J), J)
            assert out.terms == {idx: expected}


# the eight generators, raising and lowering first, in witness order
ALL_EIGHT = ("e1", "e2", "f1", "f2", "e12", "f12", "h1", "h2")


def exact_sequence_by_hand(params, r):
    """Both closure statements of exact_sequence_check as hand loops over
    all eight generators and every window index of the two band levels:
    the oracle for reading them off is_closed."""
    t0 = params.mu2_int()
    band = LBarSet.between(0, 1)
    sub_ok = True
    escape = []
    for k in range(-r, r + 1):
        for m in range(r + 1):
            v = ModuleElement(params, "w", {(k, t0, m): Fraction(1)})
            for gen in ALL_EIGHT:
                if any(j[1] != t0 for j in act_truncated(gen, v, band).terms):
                    sub_ok = False
    for k in range(-r, r + 1):
        for m in range(r + 1):
            v = ModuleElement(params, "w", {(k, t0 + 1, m): Fraction(1)})
            for gen in ALL_EIGHT:
                for j in act_truncated(gen, v, band).terms:
                    if j[1] == t0:
                        escape.append(((k, t0 + 1, m), gen, j))
    checks = {
        "lbar0-closed-in-band": sub_ok,
        "lbar1-not-closed-in-band": bool(escape),
        "witness-is-f1-to-m-plus-1": any(
            gen == "f1" and j == (k, t0, m + 1) for (k, _, m), gen, j in escape
        ),
    }
    return checks, escape[:5]


@pytest.mark.parametrize("mu2", [0, 3])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_exact_sequence_check_equals_the_hand_loops(r, mu2):
    params = Params(Fraction(1, 3), Fraction(mu2))
    rep = exact_sequence_check(params, r)
    checks, witnesses = exact_sequence_by_hand(params, r)
    assert {name: rep["checks"][name] for name in checks} == checks
    assert rep["witnesses"] == witnesses


def test_exact_sequence_report():
    rep = exact_sequence_check(P0)
    assert rep["verdict"] == "pass"
    assert rep["checks"]["lbar0-closed-in-band"]
    assert rep["checks"]["lbar1-not-closed-in-band"]
    assert rep["checks"]["witness-is-f1-to-m-plus-1"]
    assert rep["checks"]["quotient-action-matches-layer"]
    assert rep["witnesses"]


def test_a_wrong_display_fails_its_check(monkeypatch):
    """The displays are read by the ACTION_TABLE rule: e2 and e12 at m = 0
    drop their m < 0 target, and a wrong coefficient or a missing term is
    caught."""
    ((offset, coeff),) = explore._LAYER_ONE["e2"]
    monkeypatch.setitem(explore._LAYER_ONE, "e2",
                        ((offset, lambda q, m: 2 * coeff(q, m)),))
    assert not exact_sequence_check(P0)["checks"]["quotient-action-matches-layer"]
    monkeypatch.setitem(explore._RV_STRINGS[2], "f2", explore._RV_STRINGS[2]["f2"][:1])
    assert not relaxed_verma_check(2, P0, r=3)["checks"]["k-string"]


def test_a_wrong_weight_shift_fails_the_weights_and_the_character(monkeypatch):
    """Each lambda is stored once, as its (s, t) shift, and its values on h1
    and h2 go through the Cartan matrix: a wrong shift is caught by the
    weight checks as well as by the character.  A shift wrong only along
    alpha1 is caught by the weights alone: the product formula sums
    e^{(n + mu1) alpha1} over every integer n, so it does not move."""
    J, start, _ = explore._RV_CASES[2]
    monkeypatch.setitem(explore._RV_CASES, 2, (J, start, (-1, 0)))  # not (-1, -1)
    checks = relaxed_verma_check(2, P0, r=3)["checks"]
    assert not checks["weight-h1"] and not checks["weight-h2"]
    assert not checks["character"]
    monkeypatch.setitem(explore._RV_CASES, 2, (J, start, (0, -1)))
    checks = relaxed_verma_check(2, P0, r=3)["checks"]
    assert not checks["weight-h1"] and not checks["weight-h2"]
