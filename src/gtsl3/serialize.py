"""JSON encoding and decoding of the wire-facing objects, and the grammar
of every command-line token.

Scalars cross the boundary as exact strings, never floats, in the grammar
of the scalars docstring; a parameter may also be the literal "symbolic".
Term tables are emitted in lexicographic index order, so output is
byte-deterministic.  Every other token is read by an anchored match:

    index  := int "," int "," int         (--start joins indices by ";")
    window := [0-9]+, at most MAX_WINDOW  int := [+-]?[0-9]{1,4300} (ASCII)
    word   := [name {"," name}]           name := [a-z0-9]+
    set    := "full" | "l01" | run {"|" run}
    run    := "all" | "lbar<=" int | "lbar>=" int | "lbar=" int
            | "lbar in " int ".." int, the first int at most the second
    descriptor := ["plain:" | "dual:"] set

The runs are the texts in subquotient.RUN_FORMS, which LBarSet.__repr__
prints, so every printed set reads back; a set of every lbar is the full
module.  Spaces may stand around a separator or operator, and one stands
between "lbar" and "in", but none inside a number or keyword.  Outer
whitespace is stripped, but for a window, and other text raises a
ValueError naming it.
"""

from __future__ import annotations

import dataclasses
import re

from .module import Box, ModuleElement, Params
from .scalars import MU1, MU2, format_scalar, parse_scalar
from .subquotient import RUN_FORMS, LBarSet, ModuleDescriptor


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


_INT = "[+-]?[0-9]{1,4300}"  # int() reads at most 4300 digits
_INDEX = rf"{_INT} *, *{_INT} *, *{_INT}"
_INDICES = re.compile(rf"{_INDEX}(?: *; *{_INDEX})*")
MAX_WINDOW = 12  # the README gives the time of hom and verify-paper at this radius


def parse_indices(text: str, joined: bool = True) -> list:
    """The k,l,m triples of a text: several joined by ";", or one unless joined."""
    if not _INDICES.fullmatch(text.strip()) or (";" in text and not joined):
        raise ValueError(f"expected k,l,m (three integers), got {text!r}")
    ends = [int(n) for n in re.findall(_INT, text)]
    return list(zip(ends[::3], ends[1::3], ends[2::3]))


def parse_window(text: str) -> int:
    if not re.fullmatch("[0-9]+", text):
        raise ValueError(f"window radius must be an integer >= 0, got {text!r}")
    if len(text.lstrip("0")) > len(str(MAX_WINDOW)) or int(text) > MAX_WINDOW:
        raise ValueError(f"window radius must be at most {MAX_WINDOW}, got {text}")
    return int(text)


def parse_word(text: str) -> list:
    """The generator names of a word, leftmost first."""
    names = re.split(" *, *", text.strip()) if text.strip() else []
    if not all(re.fullmatch("[a-z0-9]+", name) for name in names):
        raise ValueError(f"cannot parse word {text!r}: expected names joined by ','")
    return names


def _run_pattern(printed: str) -> re.Pattern:
    """The pattern of a RUN_FORMS text: each {} an integer, and spaces allowed
    between tokens, and needed between two words."""
    tokens = re.findall(r"[a-z]+|\{\}|[^a-z{} ]+", printed)
    gaps = [""] + [" +" if (a + b).isalpha() else " *" for a, b in zip(tokens, tokens[1:])]
    pieces = [f"({_INT})" if token == "{}" else re.escape(token) for token in tokens]
    return re.compile(" *" + "".join(g + p for g, p in zip(gaps, pieces)) + " *")


_RUNS = [(_run_pattern(printed), make) for printed, make in RUN_FORMS.values()]


def parse_set_expr(text: str) -> LBarSet | None:
    """The index set a text names, None for the full module."""
    compact = text.strip()
    if compact in ("full", "l01"):
        return None if compact == "full" else LBarSet.between(0, 1)
    pieces = compact.split("|")
    sets = [make(*map(int, match.groups())) for piece in pieces
            for pattern, make in _RUNS if (match := pattern.fullmatch(piece))]
    if len(sets) < len(pieces):
        raise ValueError(f"cannot parse index set {text!r}")
    if not all(S.intervals for S in sets):
        raise ValueError(f"cannot parse index set {text!r}: an interval is empty")
    J = LBarSet([run for S in sets for run in S.intervals])
    return None if J == LBarSet.all() else J


def parse_descriptor(text: str, params: Params) -> ModuleDescriptor:
    """A descriptor as ModuleDescriptor.describe prints it."""
    kind, rest = re.fullmatch(r"(?:(plain|dual) *: *)?(.*)", text.strip(), re.S).groups()
    return ModuleDescriptor(params, kind == "dual", parse_set_expr(rest))


def box_to_json(box: Box) -> dict:
    return dataclasses.asdict(box)
