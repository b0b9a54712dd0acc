"""Exact coefficient arithmetic.

Specialized computations run over arbitrary-precision rationals
(``fractions.Fraction``).  Symbolic computations run over the fraction
field of Q[mu1, mu2], with mu1, mu2 the two module parameters.  Symbolic
fractions are never reduced to lowest terms (bivariate gcd is expensive);
equality and zero tests go through exact cross-multiplication instead,
which is all correctness needs.  Two fractions over one denominator skip
the cross-multiplication: their sum is the sum of the numerators over that
denominator, and they are equal exactly when their numerators are.

A RatFunc's normal form has no monomial common to num and den, and a den
that is primitive over Z (coprime integer coefficients) with a positive
coefficient on its lex-largest monomial.  The product of two such
denominators has both properties again: primitive by Gauss's lemma, and
positive-leading because lex order is multiplicative.  So a sum or product
of two normal fractions, whose denominator is that product or their one
shared denominator, only strips the common monomial; content and sign are
normalized where an arbitrary polynomial becomes a denominator
(construction, parsing, division).

A BiPoly product takes one of three exact routes.  A one-term factor
shifts and scales the other operand.  Otherwise both operands are scaled to
integer coefficients (by the lcm of their denominators) and the product is
divided back at the end, so its terms and coefficient types are those of
the term-by-term product.  Below _PACKED_PAIRS term pairs the schoolbook
loop runs, since packing does not pay for itself there.  From there on,
Kronecker substitution packs each operand into one integer, mu1^a mu2^b in
a fixed-width slot, and CPython's Karatsuba multiplies the two at once.
The packed integers grow with the degrees, not with the term count, so a
sparse product of high degree would take far more memory than its terms:
_PACKED_BYTES caps the packed product and sends larger ones to the
schoolbook.

Symbolic values cross the wire as text of one grammar, which
BiPoly.__str__ writes and parse_scalar reads, both from VARIABLES:

    rational := digits ["/" digits]           factor := ("mu1" | "mu2") ["^" digits]
    term     := rational | [rational ["*"]] factor {["*"] factor}
    poly     := [sign] term {sign term}       sign   := "+" | "-"
    scalar   := [sign] rational | "(" poly ")" | "(" poly ")/(" poly ")" | poly

with digits := [0-9]{1,4300}, as many as int() reads.  Spaces may stand
only around a sign, a parenthesis or the slash, and not in a bare
rational.  The printer writes c*mu1^a*mu2^b with no coefficient or power 1,
in descending (a, b) order, " + " or " - " between terms, and (num), or
(num)/(den) when den is not 1.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from fractions import Fraction

VARIABLES = ("mu1", "mu2")  # the parameters' names in the text form


def _slim(c):
    """Exact coefficients, stored as int whenever possible (int arithmetic
    is much cheaper than Fraction arithmetic)."""
    if isinstance(c, int):
        return c
    if c.denominator == 1:
        return c.numerator
    return c


def exact(x):
    """x if it is an int or a Fraction, a bool as the int it equals; else
    TypeError, so that no float or string becomes a scalar."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"{x!r} is not an exact scalar; read text with parse_scalar")
    return int(x) if type(x) is bool else x


class BiPoly:
    """Sparse polynomial in mu1, mu2 over Q.

    Terms live in a dict {(a, b): coeff} meaning coeff * mu1^a * mu2^b.
    Zero coefficients are never stored, so ``not self.terms`` is an exact
    zero test.  Coefficients are int or Fraction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for key, c in (terms or {}).items():
            c = exact(c)
            if c:
                self.terms[key] = _slim(c)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key, 0) + c
            if s:
                terms[key] = _slim(s)
            else:
                terms.pop(key, None)
        out = BiPoly.__new__(BiPoly)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = BiPoly.__new__(BiPoly)
        out.terms = {key: -c for key, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_poly(other) + (-self)

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = BiPoly.__new__(BiPoly)
        out.terms = _product(self.terms, other.terms)
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def evaluate(self, v1, v2) -> Fraction:
        v1, v2 = exact(v1), exact(v2)
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * v1**a * v2**b
        return total

    def content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def scaled(self, factor: Fraction) -> "BiPoly":
        out = BiPoly.__new__(BiPoly)
        out.terms = {k: _slim(factor * c) for k, c in self.terms.items()}
        return out

    def shift_down(self, mono) -> "BiPoly":
        a0, b0 = mono
        out = BiPoly.__new__(BiPoly)
        out.terms = {(a - a0, b - b0): c for (a, b), c in self.terms.items()}
        return out

    def __str__(self):
        text = ""
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(VARIABLES, key) if e)
            size = str(abs(c))
            term = size if not mono else mono if size == "1" else f"{size}*{mono}"
            text += (" - " if c < 0 else " + ") + term
        # the first sign is written without spaces, and a + not at all
        return "-" + text[3:] if text.startswith(" -") else text[3:] or "0"

    __repr__ = __str__


_ZERO, _ONE = BiPoly(), BiPoly({(0, 0): 1})  # shared: no BiPoly is changed in place


def _coerce_poly(x):
    if isinstance(x, BiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return BiPoly({(0, 0): x})
    return NotImplemented


# products of this many term pairs or more are packed into one integer
_PACKED_PAIRS = 100
# the largest packed product in bytes; larger products take the schoolbook
_PACKED_BYTES = 128 * 1024
_SWAP = sys.byteorder == "big"  # slots are little-endian; array("Q") is native


def _product(p: dict, q: dict) -> dict:
    """The terms of the product of two polynomials' terms."""
    if not p or not q:
        return {}
    if len(q) == 1:
        p, q = q, p
    if len(p) == 1:  # a monomial times a polynomial
        ((a0, b0), c0), = p.items()
        return {(a + a0, b + b0): _slim(c0 * c) for (a, b), c in q.items()}
    sp, p = _integral(p)
    sq, q = _integral(q)
    terms = _packed_product(p, q) if len(p) * len(q) >= _PACKED_PAIRS else None
    if terms is None:
        terms = _schoolbook(p, q)
    scale = sp * sq
    if scale != 1:
        for key, c in terms.items():
            terms[key] = c // scale if c % scale == 0 else Fraction(c, scale)
    return terms


def _integral(terms: dict):
    """(s, s * terms) for s the lcm of the coefficients' denominators."""
    scale = 1
    for c in terms.values():
        if type(c) is not int:
            scale = math.lcm(scale, c.denominator)
    if scale == 1:
        return 1, terms
    return scale, {
        key: c * scale if type(c) is int else c.numerator * (scale // c.denominator)
        for key, c in terms.items()
    }


def _schoolbook(p: dict, q: dict) -> dict:
    terms = {}
    get = terms.get
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            terms[key] = get(key, 0) + c1 * c2
    return {key: c for key, c in terms.items() if c}


def _packed_product(p: dict, q: dict):
    """Kronecker substitution for integer coefficients: mu1^a mu2^b goes
    to slot a*W + b of an integer, W = the two mu2 degrees plus one, and one
    integer product holds each coefficient of the product in its own slot.
    A slot is wide enough for the largest possible coefficient and its
    sign.  Slots are signed; a bias of half the slot range added to every
    slot makes them all non-negative, so they unpack without carries.
    None if the packed product would exceed _PACKED_BYTES."""
    ap = max(p)[0] + 1
    aq = max(q)[0] + 1
    width = max(b for _, b in p) + max(b for _, b in q) + 1
    slots = (ap + aq - 1) * width
    bits = (max(map(abs, p.values())).bit_length()
            + max(map(abs, q.values())).bit_length()
            + min(len(p), len(q)).bit_length() + 1)
    size = 8 if bits <= 64 else -(-bits // 8)  # bytes per slot
    if slots * size > _PACKED_BYTES:
        return None
    bias = 1 << (8 * size - 1)
    product = (_pack(p, width, ap * width, size) * _pack(q, width, aq * width, size)
               + int.from_bytes(bias.to_bytes(size, "little") * slots, "little"))
    data = product.to_bytes(slots * size, "little")
    if size == 8:
        values = array("Q", data)
        if _SWAP:
            values.byteswap()
    else:
        values = [int.from_bytes(data[i:i + size], "little")
                  for i in range(0, len(data), size)]
    return {divmod(k, width): v - bias for k, v in enumerate(values) if v != bias}


def _pack(terms: dict, width: int, slots: int, size: int) -> int:
    """The sum of c * 256^(size*(a*width + b)) over the terms; positive and
    negative coefficients are laid out apart, in unsigned slots."""
    pos = bytearray(slots * size)
    neg = bytearray(slots * size)
    for (a, b), c in terms.items():
        i = (a * width + b) * size
        if c > 0:
            pos[i:i + size] = c.to_bytes(size, "little")
        else:
            neg[i:i + size] = (-c).to_bytes(size, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


class RatFunc:
    """Element of the fraction field Q(mu1, mu2), stored as num/den.

    Construction strips the common monomial factor and the denominator's
    rational content from num and den and makes the denominator's leading
    coefficient positive; no polynomial gcd is ever computed.  Equality
    against any scalar is decided by cross-multiplication, except that two
    fractions whose denominators have equal terms compare their numerators,
    and their sum (or difference) keeps that one denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        # BiPoly refuses, through exact(), a part that is not an exact scalar
        num = num if isinstance(num, BiPoly) else BiPoly({(0, 0): num})
        den = _ONE if den is None else den if isinstance(den, BiPoly) else BiPoly({(0, 0): den})
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = _normal(num, den, primitive=False)

    def __bool__(self):  # false exactly at zero, as for int and Fraction
        return not self.num.is_zero()

    # named as on int and Fraction, so one cross-product compares any scalars
    numerator = property(lambda self: self.num)
    denominator = property(lambda self: self.den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):  # c*den over the same den
            return _ratfunc(self.num + self.den.scaled(other), self.den) if other else self
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.terms == other.den.terms:
            return _ratfunc(self.num + other.num, self.den)
        return _ratfunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, BiPoly, RatFunc)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # scale the numerator
            return _ratfunc(self.num.scaled(other) if other else _ZERO, self.den)
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return _ratfunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return RatFunc(other.num * self.den, other.den * self.num)

    def __pow__(self, n: int):
        out = RatFunc(_ONE)
        base = self
        if n < 0:
            base = 1 / self
            n = -n
        for _ in range(n):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.num == self.den.scaled(other) if other else self.num.is_zero()
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.terms == other.den.terms:
            return self.num.terms == other.num.terms
        # a/b == c/d  iff  a*d - c*b == 0, exactly
        return (self.num * other.den - other.num * self.den).is_zero()

    __hash__ = None

    def evaluate(self, v1, v2) -> Fraction:
        d = self.den.evaluate(v1, v2)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.evaluate(v1, v2) / d

    def as_constant(self):
        """Return the Fraction this scalar equals, or None if non-constant."""
        if self.num.is_zero():
            return Fraction(0)
        # candidate from leading monomials, verified exactly
        km = max(self.num.terms)
        kd = max(self.den.terms)
        if km != kd:
            return None
        c = Fraction(self.num.terms[km], 1) / Fraction(self.den.terms[kd], 1)
        if (self.num - c * self.den).is_zero():
            return c
        return None

    def __str__(self):
        if self.den == _ONE:
            return f"({self.num})"
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _normal(num: BiPoly, den: BiPoly, primitive: bool):
    """(num, den) in normal form: no common monomial factor, and den
    primitive over Z with a positive lex-leading coefficient.

    ``primitive`` says den has those two properties already, as a product
    of two normal denominators does; then only the monomial is stripped.
    """
    if num.is_zero():
        return _ZERO, _ONE
    if (0, 0) not in den.terms:  # else no monomial divides den
        keys = (*num.terms, *den.terms)
        mono = (min(a for a, _ in keys), min(b for _, b in keys))
        if mono != (0, 0):
            num = num.shift_down(mono)
            den = den.shift_down(mono)
    if not primitive:
        cd = den.content()
        if cd != 1:
            num = num.scaled(1 / cd)
            den = den.scaled(1 / cd)
        if den.terms[max(den.terms)] < 0:
            num = -num
            den = -den
    return num, den


def _ratfunc(num: BiPoly, den: BiPoly) -> RatFunc:
    """num/den for a den that is normal or a product of two normal
    denominators (an int or Fraction operand, or a fraction over the same
    den, keeps the other's den)."""
    out = RatFunc.__new__(RatFunc)
    out.num, out.den = _normal(num, den, primitive=True)
    return out


def _coerce_rat(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):  # a constant over one is in normal form
        return _ratfunc(BiPoly({(0, 0): x}), _ONE)
    if isinstance(x, BiPoly):
        return RatFunc(x)
    return NotImplemented


MU1 = RatFunc(BiPoly({(1, 0): 1}))
MU2 = RatFunc(BiPoly({(0, 1): 1}))


def raising_factorial(x, n: int):
    """The Pochhammer symbol x^(n) = Gamma(x+n)/Gamma(x) for every integer n:
    x (x+1) ... (x+n-1) for n >= 0, the empty product for n = 0, and
    1/((x+n) ... (x-1)) for n < 0."""
    if n < 0:
        return Fraction(1) / raising_factorial(x + n, -n)
    out = 1
    for j in range(n):
        out = out * (x + j)
    return out if n else Fraction(1)


def combine(pairs) -> dict:
    """{key: sum of its coefficients} over (key, coefficient) pairs, with
    every zero sum dropped.  Each sum is added up in the order the pairs
    come, and a key whose sum is zero is removed at once, so a later pair
    starts it afresh.  int, Fraction and RatFunc are false exactly at zero."""
    out = {}
    for key, c in pairs:
        if key in out:
            c = out[key] + c
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def scalar_as_fraction(x):
    """Fraction equal to x if x is (symbolically) constant, else None."""
    if isinstance(x, RatFunc):
        return x.as_constant()
    return Fraction(x)


def scalar_is_integer(x) -> bool:
    c = scalar_as_fraction(x)
    return c is not None and c.denominator == 1


def format_scalar(x) -> str:
    """An int, Fraction or RatFunc already prints in the wire grammar."""
    return str(x)


_DIGITS = "[0-9]{1,4300}"
_RATIONAL = f"{_DIGITS}(?:/{_DIGITS})?"
_FACTOR = rf"(?:{'|'.join(VARIABLES)})(?:\^{_DIGITS})?"
_TERM = rf"(?:(?:{_RATIONAL}\*?)?{_FACTOR}(?:\*?{_FACTOR})*|{_RATIONAL})"
_POLY = rf"[+-]? *{_TERM}(?: *[+-] *{_TERM})*"
_SCALAR_RE = re.compile(rf"\( *({_POLY}) *\)(?: */ *\( *({_POLY}) *\))?|({_POLY})")
_RATIONAL_RE = re.compile(f"[+-]?{_RATIONAL}")
_SIGN_RE = re.compile(" *([+-]) *")
_NAME_RE = re.compile(f"({'|'.join(VARIABLES)})")


def _poly(text: str) -> BiPoly:
    """The polynomial of a text that matched _POLY, read term by term."""
    pieces = _SIGN_RE.split(text if text[0] in "+-" else "+" + text)  # "", sign, term, ...
    terms = []
    for sign, term in zip(pieces[1::2], pieces[2::2]):
        head, *factors = _NAME_RE.split(term)  # [rational, name, power, ...]
        key = [0, 0]
        for name, power in zip(factors[::2], factors[1::2]):
            key[VARIABLES.index(name)] += int(power.strip("^*") or 1)
        c = Fraction(head.rstrip("*") or 1)
        terms.append((tuple(key), -c if sign == "-" else c))
    return BiPoly(combine(terms))


def parse_scalar(text: str):
    """Inverse of format_scalar, by the grammar in the module docstring."""
    text = text.strip()
    if "mu" not in text and "(" not in text:  # a rational
        if _RATIONAL_RE.fullmatch(text):  # first, as Fraction takes 1e9999999 slowly
            return Fraction(text)
    elif match := _SCALAR_RE.fullmatch(text):
        num, den, bare = match.groups()
        return RatFunc(_poly(num or bare), den and _poly(den))
    raise ValueError(f"cannot parse scalar {text!r}")
