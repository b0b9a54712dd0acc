"""JSON encoding and decoding for the wire-facing objects.

Scalars cross the boundary as exact strings, never floats, in the grammar
of the scalars docstring: rationals as "p/q" (denominator omitted when 1;
no decimal point or exponent), symbolic values as "(p)" or "(p)/(q)".  A
doubled, stray or trailing sign, a leading "*", a token split by a space
and a tab or newline are refused.  A parameter may also be the literal
string "symbolic".  Term tables are emitted in lexicographic index order,
so output is byte-deterministic.
"""

from __future__ import annotations

import dataclasses
import re

from .module import Box, ModuleElement, Params
from .scalars import MU1, MU2, format_scalar, parse_scalar
from .subquotient import LBarSet


def param_to_json(value, which: int) -> str:
    sym = MU1 if which == 1 else MU2
    if value == sym:
        return "symbolic"
    return format_scalar(value)


def param_from_json(text: str, which: int):
    if not isinstance(text, str):
        raise ValueError(f"a parameter must be a string, got {text!r}")
    if text == "symbolic":
        return MU1 if which == 1 else MU2
    return parse_scalar(text)


def params_to_json(p: Params) -> dict:
    return {"mu1": param_to_json(p.mu1, 1), "mu2": param_to_json(p.mu2, 2)}


def element_to_json(v: ModuleElement) -> dict:
    out = params_to_json(v.params)
    out["basis"] = v.basis
    out["terms"] = [
        {"k": k, "l": l, "m": m, "c": format_scalar(c)}
        for (k, l, m), c in v.items()
    ]
    return out


def _fields(obj: dict, keys, what: str):
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{what} has no {missing[0]!r}: {obj!r}")
    return [obj[key] for key in keys]


MAX_M = 40  # README: change-basis takes about 0.6 s at this m over Q(mu1, mu2)


def element_from_json(obj) -> ModuleElement:
    """Decode an element, checking every term: indices are JSON integers
    with m at most MAX_M, coefficients are exact scalar strings or JSON
    integers (never floats)."""
    if not isinstance(obj, dict):
        raise ValueError(f"an element must be a JSON object, got {obj!r}")
    listed = obj.get("terms", [])
    if not isinstance(listed, list):
        raise ValueError(f"element terms must be a list, got {listed!r}")
    basis, mu1, mu2 = _fields(obj, ("basis", "mu1", "mu2"), "the element")
    params = Params(param_from_json(mu1, 1), param_from_json(mu2, 2))
    terms = {}
    for t in listed:
        if not isinstance(t, dict):
            raise ValueError(f"an element term must be a JSON object, got {t!r}")
        k, l, m, c = _fields(t, "klmc", "a term")
        if type(k) is not int or type(l) is not int or type(m) is not int:
            raise ValueError(f"term {t!r} has an index that is not a JSON integer")
        if m > MAX_M:
            raise ValueError(f"a term's m must be at most {MAX_M}, got {m}")
        if type(c) is not int and not isinstance(c, str):
            raise ValueError(f"term {t!r} has a coefficient that is neither a string "
                             "nor a JSON integer")
        terms[k, l, m] = terms.get((k, l, m), 0) + parse_scalar(str(c))
    return ModuleElement(params, basis, terms)


def indexset_to_json(J: LBarSet) -> dict:
    parts = [
        form if form == "all" else {form: list(ends) if form == "in" else ends[0]}
        for form, ends in J.runs()
    ]
    if len(parts) == 1:
        return {"lbar": parts[0]}
    return {"lbar": {"union": parts}}


_INT = r"([+-]?[0-9]+)"
_SET_EXPR = re.compile(rf"lbar(?:(>=|<=|=){_INT}|in{_INT}\.\.{_INT})")
_BOUNDED = {">=": LBarSet.ge, "<=": LBarSet.le, "=": LBarSet.eq}


def parse_set_expr(text: str) -> LBarSet | None:
    """Command-line index set grammar, spaces ignored: full | all | l01 |
    lbar>=N | lbar<=N | lbar=N | lbar in A..B with A <= B."""
    compact = text.strip().replace(" ", "")
    if compact in ("full", "all"):
        return None
    if compact == "l01":
        return LBarSet.between(0, 1)
    match = _SET_EXPR.fullmatch(compact)
    if match is None:
        raise ValueError(f"cannot parse index set {text!r}")
    op, n, a, b = match.groups()
    if op is not None:
        return _BOUNDED[op](int(n))
    if int(a) > int(b):
        raise ValueError(f"cannot parse index set {text!r}: empty interval {a}..{b}")
    return LBarSet.between(int(a), int(b))


def box_to_json(box: Box) -> dict:
    return dataclasses.asdict(box)
