import random
from fractions import Fraction

import pytest

from gtsl3 import liealg, registry, sections
from gtsl3.module import ModuleElement, Params, act, u_vector
from gtsl3.sections import act_section

P = Params(Fraction(1, 3), Fraction(1, 5))

# The fields typed by hand from the chart, the oracle of their derivation
# from the 3x3 matrices: (coefficient, (p, q, r), variable) stands for
# coefficient * x1^p x2^q x3^r * d/dx_variable.
X1, X2, X3 = 1, 2, 3
HAND_FIELDS = {
    "e1": [(-1, (0, 0, 0), X1)],
    "e2": [(-1, (0, 0, 0), X2), (1, (1, 0, 0), X3)],
    "e12": [(-1, (0, 0, 0), X3)],
    "f1": [
        (1, (2, 0, 0), X1),
        (-1, (0, 0, 1), X2),
        (-1, (1, 1, 0), X2),
        (1, (1, 0, 1), X3),
    ],
    "f2": [(1, (0, 2, 0), X2), (1, (0, 0, 1), X1)],
    "f12": [
        (1, (1, 0, 1), X1),
        (1, (0, 1, 1), X2),
        (1, (1, 2, 0), X2),
        (1, (0, 0, 2), X3),
    ],
    # a(h) = -a1(h) x1 d1 - a2(h) x2 d2 - (a1+a2)(h) x3 d3 for h in the
    # Cartan; h1 and h2 rows use a1 = (2, -1), a2 = (-1, 2)
    "h1": [(-2, (1, 0, 0), X1), (1, (0, 1, 0), X2), (-1, (0, 0, 1), X3)],
    "h2": [(1, (1, 0, 0), X1), (-2, (0, 1, 0), X2), (-1, (0, 0, 1), X3)],
}


def test_derived_vector_fields_equal_the_hand_typed_table():
    assert list(sections.VECTOR_FIELDS) == list(liealg.GENERATORS)
    for gen, field in sections.VECTOR_FIELDS.items():
        assert len(field) == len(set(field))
        assert set(field) == set(HAND_FIELDS[gen]), gen


def test_a_wrong_matrix_makes_the_oracle_check_fail(monkeypatch):
    assert registry.run_check("oracle-equivalence")["verdict"] == "pass"
    monkeypatch.setitem(liealg._E, "f1", liealg._E["f12"])  # E31, not E21
    fields = {g: sections._field(liealg._E[g]) for g in liealg.GENERATORS}
    assert set(fields["f1"]) != set(HAND_FIELDS["f1"])
    assert {g: f for g, f in fields.items() if g != "f1"} == {
        g: f for g, f in sections.VECTOR_FIELDS.items() if g != "f1"}
    monkeypatch.setattr(sections, "VECTOR_FIELDS", fields)
    assert registry.run_check("oracle-equivalence")["verdict"] == "fail"


def test_the_section_action_refuses_an_unknown_generator_even_on_zero():
    for v in (ModuleElement(P, "u"), u_vector(P, 0, 0, 0)):
        with pytest.raises(ValueError, match="unknown generator 'zz'"):
            act_section("zz", v)


def test_twisted_derivative_rule():
    # d/dx1 on the constant section picks up the monodromy shift
    out = act_section("e1", u_vector(P, 0, 0, 0))
    assert out.terms == {(-1, 0, 0): Fraction(1, 3)}


def test_ordinary_derivative_in_the_affine_coordinate():
    out = act_section("e12", u_vector(P, 0, 0, 2))
    assert out.terms == {(0, 0, 1): Fraction(-2)}
    assert act_section("e12", u_vector(P, 0, 0, 0)).is_zero()


def test_cartan_vector_field_matches_weight():
    out = act_section("h1", u_vector(P, 0, 0, 0))
    assert out.terms == {(0, 0, 0): Fraction(7, 15)}


def test_oracle_equals_u_action_on_random_sections():
    rnd = random.Random(404)
    for _ in range(100):
        terms = {}
        for _ in range(rnd.randint(1, 3)):
            idx = (rnd.randint(-4, 4), rnd.randint(-4, 4), rnd.randint(0, 4))
            terms[idx] = Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 5))
        v = ModuleElement(P, "u", terms)
        for gen in liealg.GENERATORS:
            assert act_section(gen, v) == act(gen, v), gen


def test_oracle_equals_u_action_symbolically():
    params = Params.symbolic()
    v = ModuleElement(params, "u", {(1, -2, 2): Fraction(1), (0, 0, 0): Fraction(2)})
    for gen in liealg.GENERATORS:
        assert act_section(gen, v) == act(gen, v)
