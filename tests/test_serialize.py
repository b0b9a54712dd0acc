"""The JSON boundary: exact round trips (property tests) and the term check."""

import io
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtsl3.cli import main
from gtsl3.module import ModuleElement, Params
from gtsl3.scalars import MU1, MU2, BiPoly, RatFunc, format_scalar, parse_scalar
from gtsl3.serialize import (element_from_json, element_to_json, parse_descriptor,
                             parse_indices, parse_set_expr, parse_window, parse_word)
from gtsl3.subquotient import LBarSet, ModuleDescriptor

# deterministic and quick, so that the suite stays reproducible
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)

fractions = st.fractions(max_denominator=50).filter(lambda x: abs(x) < 1000)
bipolys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), fractions, max_size=4
).map(BiPoly)
ratfuncs = st.tuples(bipolys, bipolys.filter(lambda d: not d.is_zero())).map(
    lambda nd: RatFunc(*nd)
)
indices = st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 5))


@SETTINGS
@given(st.one_of(fractions, ratfuncs))
def test_scalar_strings_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


@st.composite
def elements(draw):
    symbolic = draw(st.booleans())
    if symbolic:
        params = Params(MU1, draw(st.sampled_from([MU2, Fraction(0), Fraction(2)])))
        coeffs = st.one_of(fractions, ratfuncs)
    else:
        params = Params(draw(fractions), draw(fractions))
        coeffs = fractions
    # the w- and eta-bases exist only off mu1 + mu2 in Z
    basis = draw(st.sampled_from(["u"] if params.sum_integral() else ["u", "w", "eta"]))
    return ModuleElement(params, basis, draw(st.dictionaries(indices, coeffs, max_size=5)))


@SETTINGS
@given(elements())
def test_elements_round_trip(v):
    assert element_from_json(element_to_json(v)) == v


def _exit_code(argv):
    with redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert set(json.loads(out.getvalue())) == {"error", "message"}
    return code


not_an_index = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
                         st.text(max_size=3), st.none(), st.lists(st.integers(), max_size=2))
not_a_coefficient = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.booleans(), st.none(), st.lists(st.integers(), max_size=2))


@SETTINGS
@given(st.sampled_from("klm"), not_an_index)
def test_a_non_integer_index_exits_2(key, value):
    term = {"k": 0, "l": 0, "m": 0, "c": "1", key: value}
    element = json.dumps({"basis": "w", "terms": [term]})
    assert _exit_code(["act", "--gen", "h1", "--element", element]) == 2


@SETTINGS
@given(not_a_coefficient)
def test_a_coefficient_that_is_not_a_string_or_integer_exits_2(value):
    element = json.dumps({"basis": "w", "terms": [{"k": 0, "l": 0, "m": 0, "c": value}]})
    assert _exit_code(["act", "--gen", "h1", "--element", element]) == 2


@pytest.mark.parametrize("key", ["basis", "mu1", "mu2", "k", "l", "m", "c"])
def test_a_missing_key_is_named(key):
    obj = {"basis": "w", "mu1": "1/3", "mu2": "1/5",
           "terms": [{"k": 0, "l": 0, "m": 0, "c": "1"}]}
    obj.pop(key, None)
    obj["terms"][0].pop(key, None)
    with pytest.raises(ValueError, match=f"has no {key!r}"):
        element_from_json(obj)


spaces = st.text(alphabet=" ", max_size=2)


@st.composite
def set_exprs(draw):
    """(text, the LBarSet it names) for every form of the grammar, with
    optional spaces."""
    a, b = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    form = draw(st.sampled_from([">=", "<=", "=", "in"]))
    pad = [draw(spaces) for _ in range(4)]
    if form == "in":
        a, b = min(a, b), max(a, b)
        text = f"{pad[0]}lbar in{pad[1]}{a}{pad[2]}..{pad[3]}{b}"
        return text, LBarSet.between(a, b)
    built = {">=": LBarSet.ge, "<=": LBarSet.le, "=": LBarSet.eq}[form](a)
    return f"{pad[0]}lbar{pad[1]}{form}{pad[2]}{a}{pad[3]}", built


@SETTINGS
@given(set_exprs())
def test_valid_set_expressions_parse_to_the_set_they_name(case):
    text, expected = case
    assert parse_set_expr(text) == expected


@SETTINGS
@given(st.one_of(st.text(max_size=12),
                 st.text(alphabet="lbarin01239=<>.-+_ ", max_size=14)))
def test_random_set_text_raises_only_value_error(text):
    try:
        parse_set_expr(text)
    except ValueError:
        pass



@SETTINGS
@given(st.lists(set_exprs(), min_size=1, max_size=4), spaces, spaces)
def test_a_union_of_set_expressions_parses_to_the_union(cases, before, after):
    text = f"{before}|{after}".join(text for text, _ in cases)
    expected = LBarSet([run for _, J in cases for run in J.intervals])
    assert parse_set_expr(text) == (None if expected == LBarSet.all() else expected)


# (reader, malformed text): a space inside a number or keyword, a keyword run
# together, an empty run, name or index, an "_" and digits outside ASCII
MALFORMED = [
    (parse_set_expr, "lbar>=1 0"), (parse_set_expr, "lbar = - 1"),
    (parse_set_expr, "l bar=1"), (parse_set_expr, "lbar in 0 . . 1"),
    (parse_set_expr, "lbarin1..2"), (parse_set_expr, "f u l l"),
    (parse_set_expr, "lbar=1 ||lbar=2"), (parse_set_expr, "lbar=1 |"),
    (parse_set_expr, "lbar in 0..1 | lbar in 3..2"),
    (parse_indices, "0,0,0_1"), (parse_indices, "0,0,\uff10"), (parse_indices, "0,0,0;"),
    (parse_indices, "0, 0,- 1"),
    (parse_window, "\uff13"), (parse_window, "\u0663"), (parse_window, " 3"),
    (parse_word, "e1,,f1"), (parse_word, ",,"), (parse_word, ",e1"), (parse_word, "e 1"),
]


@pytest.mark.parametrize("read, text", MALFORMED)
def test_a_malformed_token_is_refused_by_name(read, text):
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        read(text)


def test_an_integer_longer_than_int_reads_is_refused_by_name():
    for read, text in ((parse_set_expr, "lbar>=" + "9" * 4301),
                       (parse_indices, "0,0," + "9" * 4301)):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            read(text)
    assert parse_set_expr("lbar>=" + "9" * 4300) == LBarSet.ge(int("9" * 4300))


def test_a_descriptor_is_a_set_after_an_optional_kind():
    p = Params(Fraction(1, 3), Fraction(0))
    assert parse_descriptor(" dual : lbar >= +1 ", p) == ModuleDescriptor(p, True, LBarSet.ge(1))
    assert parse_descriptor("plain:all", p) == ModuleDescriptor(p)
    for text in ("dual:f u l l", "dual:plain:full", "dualfull", "dual:"):
        with pytest.raises(ValueError, match="cannot parse index set"):
            parse_descriptor(text, p)


def test_the_accepted_forms_of_each_token():
    assert parse_set_expr("all") is None and parse_set_expr(" full ") is None
    assert parse_set_expr("lbar<=-1 | lbar>=0") is None
    assert parse_set_expr("l01") == parse_set_expr("lbar in 0 ..1") == LBarSet.between(0, 1)
    assert parse_indices(" 0 , -1 ,+2 ; 3,4,5") == [(0, -1, 2), (3, 4, 5)]
    assert parse_indices("1,2,3", joined=False) == [(1, 2, 3)]
    with pytest.raises(ValueError, match="expected k,l,m"):
        parse_indices("1,2,3;4,5,6", joined=False)
    assert parse_window("03") == 3 and parse_window("0") == 0
    assert parse_word("") == parse_word("  ") == []
    assert parse_word(" e12 , f1,h2") == ["e12", "f1", "h2"]
