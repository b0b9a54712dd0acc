import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gtsl3.module import ModuleElement, Params, w_to_u
from gtsl3.scalars import (
    MU1,
    MU2,
    BiPoly,
    RatFunc,
    binomial,
    format_scalar,
    parse_scalar,
    raising_factorial,
    scalar_is_integer,
)


def test_raising_factorial_values():
    assert raising_factorial(3, 0) == 1
    assert raising_factorial(Fraction(-1, 5), 2) == Fraction(-4, 25)
    assert raising_factorial(MU2, 1) == MU2


def test_factorial_concatenation():
    rnd = random.Random(7)
    for _ in range(40):
        x = Fraction(rnd.randint(-9, 9), rnd.randint(1, 7))
        n = rnd.randint(0, 8)
        m = rnd.randint(0, 8)
        lhs = raising_factorial(x, n) * raising_factorial(x + n, m)
        assert lhs == raising_factorial(x, n + m)
    # negative steps too, off the integers where a factor would vanish
    for _ in range(40):
        x = Fraction(2 * rnd.randint(-9, 9) + 1, 2 * rnd.randint(1, 7))
        n = rnd.randint(-8, 8)
        m = rnd.randint(-8, 8)
        lhs = raising_factorial(x, n) * raising_factorial(x + n, m)
        assert lhs == raising_factorial(x, n + m)
        j = rnd.randint(0, 8)
        assert raising_factorial(x, -j) * raising_factorial(x - j, j) == 1
    assert raising_factorial(MU1, -2) * (MU1 - 2) * (MU1 - 1) == 1
    value = raising_factorial(3, -2)  # an int argument gives a Fraction
    assert type(value) is Fraction and value == Fraction(1, 2)


def test_binomial():
    assert binomial(3, 0) == 1
    assert binomial(4, 2) == 6
    assert binomial(1, 1) == 1
    with pytest.raises(ValueError):
        binomial(2, 3)


def _random_ratfunc(rnd):
    def poly():
        return BiPoly(
            {
                (rnd.randint(0, 2), rnd.randint(0, 2)): Fraction(
                    rnd.randint(-5, 5) or 1, rnd.randint(1, 4)
                )
                for _ in range(rnd.randint(1, 3))
            }
        )

    num = poly()
    den = poly()
    while den.is_zero():
        den = poly()
    return RatFunc(num, den)


def test_field_axioms_randomized():
    rnd = random.Random(20240808)
    for _ in range(25):
        a, b, c = (_random_ratfunc(rnd) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * (1 / a) == 1
        assert a + (-a) == 0


def test_cross_multiplication_equality():
    x = (MU1 + 1) / (MU2 - 2)
    y = (MU1 * MU1 - 1) / ((MU2 - 2) * (MU1 - 1))
    assert x == y
    assert not (x == x + 1)


def test_evaluation_commutes_with_specialization():
    rnd = random.Random(11)
    p, q = Fraction(1, 3), Fraction(1, 5)
    for _ in range(20):
        coeffs = [Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(4)]
        sym = (coeffs[0] + coeffs[1] * MU1) * (coeffs[2] - MU2) + coeffs[3] * MU1 * MU2
        direct = (coeffs[0] + coeffs[1] * p) * (coeffs[2] - q) + coeffs[3] * p * q
        assert sym.evaluate(p, q) == direct
    with pytest.raises(ZeroDivisionError):
        (1 / (MU1 - Fraction(1, 3))).evaluate(p, q)


def test_division_by_zero_is_loud():
    with pytest.raises(ZeroDivisionError):
        MU1 / (MU1 - MU1)
    with pytest.raises(ZeroDivisionError):
        RatFunc(BiPoly.one(), BiPoly.zero())


def test_integrality_detection():
    assert scalar_is_integer(Fraction(4, 2))
    assert not scalar_is_integer(Fraction(1, 3))
    assert scalar_is_integer(RatFunc(6, 3))
    assert scalar_is_integer((2 * MU1) / MU1)
    assert not scalar_is_integer(MU1)
    assert not scalar_is_integer((MU1 * MU1 - 1) / (MU1 - 1))  # = mu1 + 1, not constant


def test_format_parse_roundtrip():
    rnd = random.Random(3)
    for _ in range(30):
        x = _random_ratfunc(rnd)
        assert parse_scalar(format_scalar(x)) == x
    for text in ("1/3", "-7", "0"):
        assert format_scalar(parse_scalar(text)) == text
    assert parse_scalar("mu1") == MU1
    assert parse_scalar("(2*mu1^2*mu2 - 1/3)/(mu2 + 1)") == (
        2 * MU1**2 * MU2 - Fraction(1, 3)
    ) / (MU2 + 1)


def test_symbolic_fractions_not_reduced_but_normalized():
    x = (MU1 * MU1 - 1) / (MU1 - 1)
    # no polynomial gcd: the printed form keeps both factors
    assert "mu1^2" in format_scalar(x)
    # content and common monomials do get stripped into a unit denominator
    y = (2 * MU1 * MU2) / (4 * MU1)
    assert format_scalar(y) == "(1/2*mu2)"


# deterministic and quick, so that the suite stays reproducible
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_fractions, max_size=3
).map(BiPoly)
monomials = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda ab: BiPoly({ab: 1}))


@st.composite
def normal_ratfuncs(draw):
    """RatFunc(num, den) through the full constructor, with common monomial
    factors, constants, zero and negative leading coefficients."""
    num = draw(st.one_of(polys, small_fractions.map(BiPoly.constant)))
    den = draw(st.one_of(polys, small_fractions.map(BiPoly.constant)))
    assume(not den.is_zero())
    shared = draw(monomials)
    return RatFunc(num * shared * draw(monomials), den * shared * draw(monomials))


def _cross_multiplied(a, b):
    """Each operation's result through the full constructor."""
    out = {
        "+": RatFunc(a.num * b.den + b.num * a.den, a.den * b.den),
        "-": RatFunc(a.num * b.den - b.num * a.den, a.den * b.den),
        "*": RatFunc(a.num * b.num, a.den * b.den),
    }
    if not b.is_zero():
        out["/"] = RatFunc(a.num * b.den, a.den * b.num)
    return out


def _operations(a, b):
    out = {"+": a + b, "-": a - b, "*": a * b}
    if not b.is_zero():
        out["/"] = a / b
    return out


@SETTINGS
@given(normal_ratfuncs(), normal_ratfuncs())
def test_operations_give_the_constructor_normal_form(a, b):
    expected = _cross_multiplied(a, b)
    for op, got in _operations(a, b).items():
        want = expected[op]
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms), op
        assert str(got) == str(want), op


@SETTINGS
@given(normal_ratfuncs(), normal_ratfuncs(), small_fractions, small_fractions)
def test_operations_agree_with_fraction_arithmetic_at_points(a, b, v1, v2):
    # Schwartz-Zippel: distinct rational functions differ at almost every point
    assume(a.den.evaluate(v1, v2) != 0 and b.den.evaluate(v1, v2) != 0)
    x, y = a.evaluate(v1, v2), b.evaluate(v1, v2)
    expected = {"+": x + y, "-": x - y, "*": x * y}
    if y:
        expected["/"] = x / y
    for op, got in _operations(a, b).items():
        if op in expected:
            assert got.evaluate(v1, v2) == expected[op], op


def test_symbolic_change_of_basis_prints_the_same_strings():
    golden = [
        {(1, 2, 0): "1"},
        {(1, 2, 1): "1", (2, 3, 0): "(mu2 - 2)/(mu1 + mu2 - 3)"},
        {
            (1, 2, 2): "1",
            (2, 3, 1): "(2*mu2 - 4)/(mu1 + mu2 - 3)",
            (3, 4, 0): "(mu2^2 - 5*mu2 + 6)/(mu1^2 + 2*mu1*mu2 - 7*mu1 + mu2^2 - 7*mu2 + 12)",
        },
        {
            (1, 2, 3): "1",
            (2, 3, 2): "(3*mu2 - 6)/(mu1 + mu2 - 3)",
            (3, 4, 1): "(3*mu2^2 - 15*mu2 + 18)/"
                       "(mu1^2 + 2*mu1*mu2 - 7*mu1 + mu2^2 - 7*mu2 + 12)",
            (4, 5, 0): "(mu2^3 - 9*mu2^2 + 26*mu2 - 24)/"
                       "(mu1^3 + 3*mu1^2*mu2 - 12*mu1^2 + 3*mu1*mu2^2 - 24*mu1*mu2"
                       " + 47*mu1 + mu2^3 - 12*mu2^2 + 47*mu2 - 60)",
        },
    ]
    for m, expected in enumerate(golden):
        u = w_to_u(ModuleElement(Params.symbolic(), "w", {(1, 2, m): 1}))
        assert {idx: format_scalar(c) for idx, c in u.items()} == expected, m


def test_integral_sums_are_stored_as_int():
    s = MU1 * Fraction(1, 3) + MU1 * Fraction(2, 3)
    assert s.num.terms == {(1, 0): 1}
    assert type(s.num.terms[(1, 0)]) is int
    p = BiPoly({(0, 1): Fraction(1, 2)}) + BiPoly({(0, 1): Fraction(5, 2), (0, 0): 1})
    assert {k: type(c) for k, c in p.terms.items()} == {(0, 1): int, (0, 0): int}
    assert format_scalar(s) == "(mu1)"
