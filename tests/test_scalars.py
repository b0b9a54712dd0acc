import json
import operator
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gtsl3 import scalars
from gtsl3.module import ModuleElement, Params, w_to_u
from gtsl3.scalars import (
    MU1,
    MU2,
    BiPoly,
    RatFunc,
    format_scalar,
    parse_scalar,
    raising_factorial,
    scalar_is_integer,
)
from schoolbook_oracle import schoolbook_product, typed


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
        if a:
            assert a * (1 / a) == 1
        assert a + (-a) == 0


def test_cross_multiplication_equality():
    x = (MU1 + 1) / (MU2 - 2)
    y = (MU1 * MU1 - 1) / ((MU2 - 2) * (MU1 - 1))
    assert x == y
    assert not (x == x + 1)


@pytest.mark.parametrize("text", ["(mu1 + 1)/(mu2 - 2)", "(1/2*mu2)", "(-3/7)",
                                  "(0)", "(mu1^2 - 1)/(2*mu1*mu2 + 3)"])
def test_numerator_over_denominator_is_the_value(text):
    """As for int and Fraction, so one cross-product serves every scalar."""
    x = parse_scalar(text)
    assert (x.numerator, x.denominator) == (x.num, x.den)
    assert RatFunc(x.numerator) / RatFunc(x.denominator) == x


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
        RatFunc(BiPoly({(0, 0): 1}), BiPoly())


def test_integrality_detection():
    assert scalar_is_integer(Fraction(4, 2))
    assert not scalar_is_integer(Fraction(1, 3))
    assert scalar_is_integer(RatFunc(6, 3))
    assert scalar_is_integer((2 * MU1) / MU1)
    assert not scalar_is_integer(MU1)
    assert not scalar_is_integer((MU1 * MU1 - 1) / (MU1 - 1))  # = mu1 + 1, not constant


def test_parse_scalar_takes_only_the_wire_form_of_a_rational():
    assert parse_scalar(" -12/34 ") == Fraction(-6, 17)
    assert parse_scalar("+5") == 5
    # cheap forms first; Fraction alone takes seconds over the last one
    for text in ("1e5", "0.5", "1_000", "inf", "nan", "1 / 3", "", "1e9999999"):
        with pytest.raises(ValueError, match="cannot parse scalar"):
            parse_scalar(text)


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


@pytest.mark.parametrize("text, value", [
    ("2mu1", 2 * MU1),  # a product needs no *
    ("mu1mu2^2*mu1", MU1**2 * MU2**2),
    ("1/2*mu2 - 3mu1^0", Fraction(1, 2) * MU2 - 3),
    ("( - mu1 +  1 ) /  ( mu2 )", (1 - MU1) / MU2),  # spaces around signs, ( ) and /
    ("+mu1", MU1),
    ("-3", Fraction(-3)),
    ("(0*mu1 + 4/6)", Fraction(2, 3)),
    pytest.param("(" + "9" * 4300 + "*mu1)", (10**4300 - 1) * MU1, id="(<4300 digits>*mu1)"),
])
def test_the_grammar_reads_each_form_it_allows(text, value):
    assert parse_scalar(text) == value


MALFORMED = [
    "--mu1", "+-mu1", "(mu1 - + 2)", "mu1++mu2",  # a doubled sign
    "mu1+", "(mu1-)/(mu2)", "(1)/(mu1+)", "(-)", "(+)",  # a sign with no term
    "*mu1", "(2*)", "mu1**mu2", "mu1^", "mu1^-1", "mu3", "2/mu1",  # a broken term
    "(1 2)", "(mu 1)", "mu1 mu2", "(2 * mu1)", "(1 / 3)", "mu1 ^2",  # a split token
    "(mu1\n+ 1)", "(٣)",  # a space that is not " ", a digit that is not 0-9
    "()", "((mu1))", "(mu1)/mu2", "mu1/(mu2)", "(mu1)(mu2)", "(mu1)/", "(mu1)/(mu2)/(mu1)",
    # a run of more digits than int() reads
    *(pytest.param(form.format("9" * 4301), id=form.format("<4301 digits>"))
      for form in ("{}", "-{}", "({}*mu1)", "1/{}", "{}/3", "mu1^{}", "(1)/(mu2^{})")),
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_scalars_are_refused(text):
    with pytest.raises(ValueError, match="cannot parse scalar"):
        parse_scalar(text)


@pytest.mark.parametrize("x", [
    0, 7, -12, 10**50, Fraction(0), Fraction(5), Fraction(-1, 3), Fraction(-22, 7),
    Fraction(10**4299 + 1, 3), Fraction(-(10**4299) - 7, 10**20 + 1),
    RatFunc(0), MU1, MU1 / (MU2 + 1), (MU1 * MU1 - 1) / (MU1 - 1), RatFunc(Fraction(-2, 7)),
], ids=lambda x: f"{type(x).__name__} {str(x)[:24]}")
def test_format_scalar_prints_what_the_fraction_or_ratfunc_printed(x):
    """An int or a Fraction prints as its Fraction, a RatFunc as itself, up
    to a 4,300-digit numerator, as many digits as parse_scalar reads."""
    assert format_scalar(x) == (str(x) if isinstance(x, RatFunc) else str(Fraction(x)))
    assert parse_scalar(format_scalar(x)) == x


def _golden_poly(terms):
    return BiPoly({(a, b): Fraction(c) for a, b, c in terms})


def test_scalars_print_as_the_golden_forms_and_parse_back():
    """Seeded random values in normal form, stored as terms with the text
    they print as: the printed form is part of the wire format."""
    with open(Path(__file__).parent / "golden" / "scalar_forms.json") as f:
        corpus = json.load(f)
    assert len(corpus) == 240
    for row in corpus:
        x = RatFunc(_golden_poly(row["num"]), _golden_poly(row["den"]))
        assert str(x) == format_scalar(x) == row["text"]
        back = parse_scalar(row["text"])
        assert back == x and str(back) == row["text"]


@pytest.mark.parametrize("c", [0.1, 0.0, "1/3", MU1, None])
def test_a_polynomial_coefficient_is_an_int_or_a_fraction(c):
    with pytest.raises(TypeError, match=re.escape(f"{c!r} is not an exact scalar")):
        BiPoly({(0, 0): c})


@pytest.mark.parametrize("point", [(0.1, 0), (0, 0.5), ("1/3", 0), (0, None)])
def test_evaluation_takes_exact_points_only(point):
    bad = next(v for v in point if not isinstance(v, int))
    for value in (MU1, MU1.num, (MU1 + 1) / (MU2 + 2)):
        with pytest.raises(TypeError, match=re.escape(f"{bad!r} is not an exact scalar")):
            value.evaluate(*point)
    assert ((MU1 + 1) / (MU2 + 2)).evaluate(True, Fraction(1, 2)) == Fraction(4, 5)


@pytest.mark.parametrize("parts", [(0.5,), (MU1.num, "x"), ("1",), (MU1,), (1, 0.25)])
def test_a_rational_function_is_made_of_exact_parts_only(parts):
    bad = next(x for x in parts if not isinstance(x, (int, BiPoly)))
    with pytest.raises(TypeError, match=re.escape(f"{bad!r} is not an exact scalar")):
        RatFunc(*parts)


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
    num = draw(st.one_of(polys, small_fractions.map(lambda c: BiPoly({(0, 0): c}))))
    den = draw(st.one_of(polys, small_fractions.map(lambda c: BiPoly({(0, 0): c}))))
    assume(not den.is_zero())
    shared = draw(monomials)
    return RatFunc(num * shared * draw(monomials), den * shared * draw(monomials))


@st.composite
def pairs_over_one_den(draw):
    """(a, b) with b's numerator over a's denominator.  The numerator is
    drawn, or is a's own or its negative, so that a == b holds and the sum
    or difference cancels in some draws; a common monomial of that numerator
    and the denominator is stripped, which leaves b's denominator smaller."""
    a = draw(normal_ratfuncs())
    num = draw(st.one_of(polys, st.sampled_from([a.num, -a.num]),
                         polys.map(lambda p: a.num + p)))
    return a, RatFunc(num, a.den)


def _constructor_results(a, b):
    """Each operation's result through the full constructor; a sum or
    difference over one denominator keeps it."""
    if a.den.terms == b.den.terms:
        plus, minus, den = a.num + b.num, a.num - b.num, a.den
    else:
        plus, minus = a.num * b.den + b.num * a.den, a.num * b.den - b.num * a.den
        den = a.den * b.den
    out = {
        "+": RatFunc(plus, den),
        "-": RatFunc(minus, den),
        "*": RatFunc(a.num * b.num, a.den * b.den),
    }
    if b:
        out["/"] = RatFunc(a.num * b.den, a.den * b.num)
    return out


def _equal_by_cross_multiplication(x, y):
    return (x.num * y.den - y.num * x.den).is_zero()


def _operations(a, b):
    out = {"+": a + b, "-": a - b, "*": a * b}
    if b:
        out["/"] = a / b
    return out


def _assert_constructor_normal_form(a, b):
    expected = _constructor_results(a, b)
    for op, got in _operations(a, b).items():
        want = expected[op]
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms), op
        assert str(got) == str(want), op


@SETTINGS
@given(normal_ratfuncs(), normal_ratfuncs())
def test_operations_give_the_constructor_normal_form(a, b):
    _assert_constructor_normal_form(a, b)


@SETTINGS
@given(pairs_over_one_den())
def test_fractions_over_one_den_agree_with_cross_multiplication(pair):
    a, b = pair
    den = a.den * b.den
    assert _equal_by_cross_multiplication(a + b, RatFunc(a.num * b.den + b.num * a.den, den))
    assert _equal_by_cross_multiplication(a - b, RatFunc(a.num * b.den - b.num * a.den, den))
    equal = _equal_by_cross_multiplication(a, b)
    assert (a == b) is equal and (b == a) is equal and (a != b) is not equal
    _assert_constructor_normal_form(a, b)


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


scalar_operands = st.one_of(st.integers(-6, 6), small_fractions,
                            st.sampled_from([0, Fraction(0), True, 2**70]))


@SETTINGS
@given(normal_ratfuncs(), scalar_operands)
def test_scalar_operands_give_what_the_coercing_path_gives(a, c):
    # an int or Fraction operand is handled directly; wrapping it as a
    # constant RatFunc first takes the general path, as every operand once did
    wrapped = scalars._coerce_rat(c)
    assert type(wrapped) is RatFunc
    pairs = {
        "a + c": (a + c, a + wrapped), "c + a": (c + a, wrapped + a),
        "a - c": (a - c, a - wrapped), "c - a": (c - a, wrapped - a),
        "a * c": (a * c, a * wrapped), "c * a": (c * a, wrapped * a),
    }
    for name, (got, want) in pairs.items():
        assert type(got) is RatFunc, name
        assert str(got) == str(want), name
        assert typed(got.num.terms) == typed(want.num.terms), name
        assert typed(got.den.terms) == typed(want.den.terms), name
    assert (a == c) is (a == wrapped)


def test_scalar_sums_that_cancel_give_the_normal_zero():
    a = (2 * MU1 + 2) / (MU1 + 1)  # equals 2, stored unreduced
    assert str(a) == "(2*mu1 + 2)/(mu1 + 1)"
    for zero in (a - 2, a + (-2), -2 + a, 2 - a, a * 0, 0 * a, a - Fraction(2)):
        assert str(zero) == "(0)" and zero.den.terms == {(0, 0): 1}


def test_equality_with_scalars_and_printing_of_constants():
    assert RatFunc(7) == 7 and RatFunc(7) != 6 and RatFunc(0) == 0
    assert (MU1 - MU1) == Fraction(0) and not (MU1 == 0)
    assert (2 * MU1) / MU1 == 2 and (MU1 + 1) / (MU1 + 1) == Fraction(1)
    assert str(RatFunc(Fraction(3, 2))) == "(3/2)" and str(MU1 / MU2) == "(mu1)/(mu2)"


def test_a_bool_coefficient_is_stored_as_the_int_it_equals():
    assert str(RatFunc(True)) == "(1)"
    assert str(scalars._coerce_rat(True) + RatFunc(0)) == "(1)"
    assert type(BiPoly({(0, 0): True}).terms[(0, 0)]) is int
    assert type(BiPoly({(1, 0): True}).terms[(1, 0)]) is int


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
@pytest.mark.parametrize("other", [1.5, "a", None, [1]])
def test_unsupported_operands_raise_type_error_on_either_side(op, other):
    with pytest.raises(TypeError):
        op(other, MU1)
    with pytest.raises(TypeError):
        op(MU1, other)


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


# -- the product kernel: small products on the schoolbook, large ones packed
# into one integer (Kronecker substitution), compared with the schoolbook
# product as it stood before packing

COEFFICIENTS = {
    "small": st.integers(-9, 9),
    "word": st.integers(-(2**30), 2**30),
    "wide": st.integers(2**64, 2**80).flatmap(lambda n: st.sampled_from([n, -n])),
    "fraction": st.fractions(min_value=-9, max_value=9, max_denominator=12),
}
SHAPES = {  # largest mu1 and mu2 exponent
    "dense": (6, 6),
    "univariate": (60, 0),
    "sparse": (400, 300),
}


@st.composite
def term_dicts(draw):
    """Terms of a BiPoly with up to 40 terms: dense of low degree, in mu1
    alone (so a slot row is one slot wide), or sparse of high degree (so
    that some products exceed the packed byte budget); with small, word-size,
    wider than 2^64, Fraction or mixed coefficients."""
    amax, bmax = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    kind = draw(st.sampled_from(sorted(COEFFICIENTS) + ["mixed"]))
    coeff = st.one_of(*COEFFICIENTS.values()) if kind == "mixed" else COEFFICIENTS[kind]
    size = draw(st.sampled_from([4, 12, 40]))
    keys = st.tuples(st.integers(0, amax), st.integers(0, bmax))
    return BiPoly(draw(st.dictionaries(keys, coeff, min_size=size // 2, max_size=size))).terms


@SETTINGS
@given(term_dicts(), term_dicts())
def test_product_equals_the_schoolbook_product(p, q):
    got = (BiPoly(p) * BiPoly(q)).terms
    assert typed(got) == typed(schoolbook_product(p, q))


@SETTINGS
@given(term_dicts(), term_dicts())
def test_product_with_cancelling_slots_equals_the_schoolbook_product(a, b):
    # (a + b)(a - b): the a*b and b*a contributions cancel slot by slot
    plus, minus = (BiPoly(a) + BiPoly(b)).terms, (BiPoly(a) - BiPoly(b)).terms
    got = (BiPoly(plus) * BiPoly(minus)).terms
    assert typed(got) == typed(schoolbook_product(plus, minus))
    assert got == (BiPoly(a) * BiPoly(a) - BiPoly(b) * BiPoly(b)).terms


def _dense(degree, top):
    """Every monomial of total degree <= degree, coefficients of both signs
    up to ``top`` in size."""
    rnd = random.Random(degree * 1000 + top.bit_length())
    return {
        (a, b): rnd.choice([-1, 1]) * rnd.randint(1, top)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
    }


@pytest.mark.parametrize("top", [3, 2**25, 2**70])
def test_packed_product_is_exact_for_every_slot_size(top):
    # 8-byte slots, and wider ones for top = 2**70
    p, q = _dense(7, top), _dense(6, top)
    assert len(p) * len(q) >= scalars._PACKED_PAIRS
    expected = typed(schoolbook_product(p, q))
    assert typed(scalars._packed_product(p, q)) == expected
    assert typed((BiPoly(p) * BiPoly(q)).terms) == expected
    # Fraction coefficients are scaled to integers and divided back
    pf = {key: Fraction(c, 1 + key[0] % 3) for key, c in p.items()}
    qf = {key: Fraction(c, 2 + key[1] % 2) for key, c in q.items()}
    pf, qf = BiPoly(pf).terms, BiPoly(qf).terms
    assert typed((BiPoly(pf) * BiPoly(qf)).terms) == typed(schoolbook_product(pf, qf))


@pytest.mark.parametrize("cp, cq, n", [
    (-(2**30 - 1), 2**30 - 1, 7),  # 64 bits with the sign: fills 8-byte slots
    (2**30 - 1, 2**30 - 1, 7),
    (2**31 - 1, -(2**31 - 1), 8),  # 31 + 31 + 1 bits fit 8 bytes, 8 products do not
    (-(2**31 - 1), 2**31 - 1, 3),  # 3 products fit 64 bits, but not with the sign
])
def test_slots_hold_the_largest_sum_and_its_sign(cp, cq, n):
    p = {(a, 0): cp for a in range(n)}
    q = {(a, 0): cq for a in range(n)}
    got = scalars._packed_product(p, q)
    assert got[(n - 1, 0)] == n * cp * cq
    assert typed(got) == typed(schoolbook_product(p, q))


def test_products_over_the_byte_budget_take_the_schoolbook():
    p = {(0, 0): 1, (300, 0): 2, (0, 300): -3}
    q = {(a, b): a - b + 1 for a in range(0, 400, 40) for b in range(0, 400, 40)}
    assert len(p) * len(q) >= scalars._PACKED_PAIRS
    assert scalars._packed_product(p, q) is None
    assert typed((BiPoly(p) * BiPoly(q)).terms) == typed(schoolbook_product(p, q))


def test_cancelled_slots_are_not_stored():
    a = _dense(4, 9)
    b = {(a_ + 5, b_): c for (a_, b_), c in _dense(3, 9).items()}
    plus, minus = (BiPoly(a) + BiPoly(b)).terms, (BiPoly(a) - BiPoly(b)).terms
    assert len(plus) * len(minus) >= scalars._PACKED_PAIRS
    got = scalars._packed_product(plus, minus)
    assert typed(got) == typed(schoolbook_product(plus, minus))
    # a*b has terms of mu1 degree 9, where a*a (up to 8) and b*b (from 10)
    # have none, so those slots cancel
    crossed = {(a1 + a2, b1 + b2) for (a1, b1) in a for (a2, b2) in b}
    assert crossed - set(got)
