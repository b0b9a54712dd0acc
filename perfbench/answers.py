"""Answers the benchmark holds itself, independent of the engine's registry,
and an evaluator for the engine's wire format of symbolic scalars."""

from __future__ import annotations

import re
from fractions import Fraction

GENERIC = (Fraction(1, 3), Fraction(1, 5))
INTEGRAL_MU2 = (Fraction(1, 3), Fraction(0))

# the registered checks of `gtsl3 verify-paper`; each must pass
CHECK_IDS = (
    "structure-constants", "brackets-u", "brackets-w", "brackets-eta",
    "brackets-symbolic", "oracle-equivalence", "basis-roundtrip",
    "gt-injectivity", "lemma-collision", "eigensplit", "simplicity-generic",
    "closure-integral", "dual-cyclicity", "hom-dims", "closed-forms",
    "obstruction", "relaxed-verma", "character-formula", "casimir",
    "exact-sequence",
)
CASIMIR_SCALAR = "0"

# lbar interval sets as sorted (lo, hi) tuples, None for an open end
EMPTY = ()
EQ0, EQ1 = ((0, 0),), ((1, 1),)
GE1, GE2 = ((1, None),), ((2, None),)
IN01 = ((0, 1),)

# the six Hom statements at integral mu2: (name, index set, source is dual,
# target is dual, image, kernel); every Hom space has dimension 1
HOM_STATEMENTS = (
    ("l01-dual-plain", "l01", True, False, EQ0, EQ1),
    ("l01-plain-dual", "l01", False, True, EQ1, EQ0),
    ("ge1-dual-plain", "lbar>=1", True, False, EQ1, GE2),
    ("ge1-plain-dual", "lbar>=1", False, True, GE2, EQ1),
    ("ge0-dual-plain", "lbar>=0", True, False, EQ0, GE1),
    ("ge0-plain-dual", "lbar>=0", False, True, GE2, IN01),
)

# the nine lbar-sets of the structure theory and their classification
NINE_SETS = (
    ("lbar>=0", "submodule"),
    ("lbar=0", "submodule"),
    ("lbar in 0..1", "submodule"),
    ("lbar<=1", "submodule"),
    ("lbar<=0", "submodule"),
    ("lbar>=1", "quotient"),
    ("lbar>=2", "quotient"),
    ("lbar<=-1", "quotient"),
    ("lbar=1", "subquotient"),
)


def window_size(r: int) -> int:
    """Indices in a radius-r window: (2r+1)^2 (r+1)."""
    return (2 * r + 1) ** 2 * (r + 1)


def character(c: int, r: int) -> dict:
    """Weight multiplicities of the lbar >= c subquotient on |s| <= r,
    -r <= t <= 0: the weight (s, t) is met once for each (lbar, m) with
    lbar >= c, m >= 0 and lbar + m = -t."""
    return {(s, t): -t - c + 1 for s in range(-r, r + 1) for t in range(-r, -c + 1)}


def interval_json(intervals) -> dict:
    """An lbar interval set in the CLI's JSON form."""
    parts = []
    for lo, hi in intervals:
        if lo is None:
            parts.append({"le": hi})
        elif hi is None:
            parts.append({"ge": lo})
        elif lo == hi:
            parts.append({"eq": lo})
        else:
            parts.append({"in": [lo, hi]})
    return {"lbar": parts[0] if len(parts) == 1 else {"union": parts}}


# -- symbolic scalars in the wire format "(poly)" or "(poly)/(poly)" --------

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?\*?((?:\*?mu[12](?:\^\d+)?)*)")


def _poly_at(text: str, mu1: Fraction, mu2: Fraction) -> Fraction:
    text = text.replace(" ", "")
    total = Fraction(0)
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read polynomial {text!r} at {pos}")
        sign, coeff, monos = m.groups()
        value = Fraction(coeff) if coeff else Fraction(1)
        for var, exp in re.findall(r"mu([12])(?:\^(\d+))?", monos):
            value *= (mu1 if var == "1" else mu2) ** (int(exp) if exp else 1)
        total += -value if sign == "-" else value
        pos = m.end()
    return total


def scalar_at(text: str, mu1: Fraction, mu2: Fraction) -> Fraction:
    """Value of an exact scalar string at a rational point (mu1, mu2)."""
    text = text.strip()
    if not text.startswith("("):
        return Fraction(text)
    depth = 0
    for i, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth == 0:
            num = _poly_at(text[1:i], mu1, mu2)
            rest = text[i + 1:].strip()
            if not rest:
                return num
            if not (rest.startswith("/(") and rest.endswith(")")):
                raise ValueError(f"cannot read scalar {text!r}")
            return num / _poly_at(rest[2:-1], mu1, mu2)
    raise ValueError(f"unbalanced scalar {text!r}")


# a point off every denominator the engine builds (products of linear forms
# a*mu1 + b*mu2 + c with small integers a, b, c)
POINT = (Fraction(3, 97), Fraction(5, 89))


def terms_at(element, point=POINT) -> dict:
    """{index: value at the point} of a module element, read through the
    scalars' string form."""
    return {idx: scalar_at(str(c), *point) for idx, c in element.terms.items()}
