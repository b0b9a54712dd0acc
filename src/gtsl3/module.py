"""The module M_{mu1,mu2}: finitely supported elements over the index set
Z^2 x Z_{>=0}, the sl3 action in the u- and w-bases and in the eta-basis of
the dual, the pairing of the dual with the module, change of basis, and
Gelfand-Tsetlin eigenvalue data.

Indices are plain tuples (k, l, m).  The action in all three bases is one
table, ACTION_TABLE, of index offsets and coefficients in m and a Line of
kbar = k - mu1 and lbar = l - mu2, read by one rule; its eta-part is built
from its w-part through tau.  No offset moves an index by more than one
step, so finite support is preserved and the full module action is
computed exactly -- finite windows enter only in the search and solve layers.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

from . import liealg
from .errors import BasisMismatch, NonGenericParameters, RequiresIntegralMu2
from .scalars import (MU1, MU2, RatFunc, combine, exact, raising_factorial,
                      scalar_is_integer)

_UNKNOWN = object()  # a Params fact not yet worked out

# the raising and lowering generators: the ones that move an index
OFF_DIAGONAL = ("e1", "e2", "f1", "f2", "e12", "f12")
# (e, f) per coordinate of (k, l, m): e lowers it by one and f raises it
AXIS_PAIRS = (("e1", "f1"), ("e2", "f2"), ("e12", "f12"))


class Params:
    """The two module parameters plus decidable genericity predicates.

    Either both parameters are exact rationals (specialized mode) or at
    least one is a rational function (symbolic mode).  A symbolic parameter
    may still be an integer constant -- e.g. mu2 = 0 with mu1 left symbolic
    -- and the predicates see through that exactly.  What elements,
    descriptors and the per-vector actions consult, whether mu1 + mu2 is
    integral, the integer value of mu2 and the Line of each (k, l), is
    worked out on first use and then kept (not in __init__, which would add
    RatFunc operations to every symbolic Params made); the lines kept grow
    with a window's area, not its volume.
    """

    __slots__ = ("mu1", "mu2", "_sum_integral", "_mu2_int", "_lines", "__weakref__")

    def __init__(self, mu1, mu2):
        self.mu1 = mu1 if isinstance(mu1, RatFunc) else Fraction(exact(mu1))
        self.mu2 = mu2 if isinstance(mu2, RatFunc) else Fraction(exact(mu2))
        self._sum_integral = _UNKNOWN
        self._mu2_int = _UNKNOWN
        self._lines = {}

    @classmethod
    def symbolic(cls) -> "Params":
        return cls(MU1, MU2)

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.mu1, RatFunc) or isinstance(self.mu2, RatFunc)

    def mu1_integral(self) -> bool:
        return scalar_is_integer(self.mu1)

    def mu2_integral(self) -> bool:
        return scalar_is_integer(self.mu2)

    def sum_integral(self) -> bool:
        if self._sum_integral is _UNKNOWN:
            self._sum_integral = scalar_is_integer(self.mu1 + self.mu2)
        return self._sum_integral

    def require_generic_sum(self):
        if self.sum_integral():
            raise NonGenericParameters("mu1 + mu2 must not be an integer")

    def mu2_int(self) -> int:
        if self._mu2_int is _UNKNOWN:
            self._mu2_int = None  # stays None when mu2 is not an integer
            if self.mu2_integral():
                mu2 = self.mu2
                if isinstance(mu2, RatFunc):
                    mu2 = mu2.as_constant()
                self._mu2_int = int(mu2)
        if self._mu2_int is None:
            raise RequiresIntegralMu2("operation needs mu2 in Z")
        return self._mu2_int

    def kbar(self, k: int):
        return k - self.mu1

    def lbar(self, l: int):
        return l - self.mu2

    def line(self, k: int, l: int) -> "Line":
        q = self._lines.get((k, l))
        if q is None:
            q = self._lines[k, l] = Line(self.kbar(k), self.lbar(l), (weakref.ref(self), k, l))
        return q

    def __eq__(self, other):
        return (
            isinstance(other, Params)
            and self.mu1 == other.mu1
            and self.mu2 == other.mu2
        )

    __hash__ = None

    def __repr__(self):
        return f"Params(mu1={self.mu1}, mu2={self.mu2})"


class Line:
    """What a table coefficient reads of (k, l): kb = kbar, lb = lbar, their
    negatives nkb and nlb, their sum s, the w-table's `ratios` once worked
    out, and shift(dk, dl), the line at (k + dk, l + dl): the cached one
    while the Params that made it lives, else one by value.  The Params is
    held weakly, at = (weak reference, k, l), so it and its lines form no
    cycle for gc to find."""

    __slots__ = ("kb", "lb", "nkb", "nlb", "s", "ratios", "_at")

    def __init__(self, kb, lb, at=None):
        self.kb, self.lb, self.nkb, self.nlb = kb, lb, -kb, -lb
        self.s, self.ratios, self._at = kb + lb, None, at

    def shift(self, dk: int, dl: int) -> "Line":
        p = self._at and self._at[0]()
        if p is None:
            return Line(self.kb + dk, self.lb + dl)
        return p.line(self._at[1] + dk, self._at[2] + dl)


@dataclass(frozen=True)
class Box:
    """Finite index window: kmin<=k<=kmax, lmin<=l<=lmax, 0<=m<=mmax."""

    kmin: int
    kmax: int
    lmin: int
    lmax: int
    mmax: int

    @classmethod
    def radius(cls, r: int, lcenter: int = 0) -> "Box":
        return cls(-r, r, lcenter - r, lcenter + r, r)

    def contains(self, idx) -> bool:
        k, l, m = idx
        return (
            self.kmin <= k <= self.kmax
            and self.lmin <= l <= self.lmax
            and 0 <= m <= self.mmax
        )

    def __iter__(self):
        for k in range(self.kmin, self.kmax + 1):
            for l in range(self.lmin, self.lmax + 1):
                for m in range(self.mmax + 1):
                    yield (k, l, m)


class ModuleElement:
    """Finitely supported vector over one of the bases u, w, eta.

    Immutable by convention: operations return fresh elements, and stored
    coefficients are exact and nonzero.  The w- and eta-bases exist only
    off mu1 + mu2 in Z, so no element of them, not even zero, is made there;
    every other operation on w or eta starts from such an element or from a
    ModuleDescriptor, which refuses the same parameters.
    """

    __slots__ = ("params", "basis", "terms")

    def __init__(self, params: Params, basis: str, terms=None):
        if basis not in ("u", "w", "eta"):
            raise ValueError(f"unknown basis {basis!r}")
        if basis != "u":
            params.require_generic_sum()
        self.params = params
        self.basis = basis
        data = {}
        if terms:
            for idx, c in terms.items():
                if idx[2] < 0:
                    raise ValueError(f"index {idx} has m < 0")
                c = c if isinstance(c, RatFunc) else exact(c)
                if c:
                    data[idx] = c
        self.terms = data

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return sorted(self.terms)

    def items(self):
        return [(idx, self.terms[idx]) for idx in sorted(self.terms)]

    def _check_compatible(self, other: "ModuleElement"):
        if self.basis != other.basis:
            raise BasisMismatch(f"cannot combine {self.basis!r} with {other.basis!r}")
        if self.params != other.params:
            raise BasisMismatch("elements have different parameters")

    def __add__(self, other):
        self._check_compatible(other)
        out = ModuleElement.__new__(ModuleElement)
        out.params, out.basis = self.params, self.basis
        out.terms = combine(itertools.chain(self.terms.items(), other.terms.items()))
        return out

    def __neg__(self):
        out = ModuleElement.__new__(ModuleElement)
        out.params, out.basis = self.params, self.basis
        out.terms = {idx: -c for idx, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "ModuleElement":
        c = c if isinstance(c, RatFunc) else exact(c)
        if not c:
            return ModuleElement(self.params, self.basis)
        out = ModuleElement.__new__(ModuleElement)
        out.params, out.basis = self.params, self.basis
        out.terms = {idx: c * v for idx, v in self.terms.items()}
        return out

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        if self.basis != other.basis or self.params != other.params:
            return False
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return f"<zero {self.basis}-element>"
        bits = ", ".join(f"{idx}: {c}" for idx, c in self.items())
        return f"<{self.basis}-element {{{bits}}}>"


def basis_vector(params: Params, basis: str, idx) -> ModuleElement:
    return ModuleElement(params, basis, {tuple(idx): Fraction(1)})


def u_vector(params, k, l, m) -> ModuleElement:
    return basis_vector(params, "u", (k, l, m))


def w_vector(params, k, l, m) -> ModuleElement:
    return basis_vector(params, "w", (k, l, m))


def eta_vector(params, k, l, m) -> ModuleElement:
    return basis_vector(params, "eta", (k, l, m))


# ---------------------------------------------------------------------------
# the action on one basis vector, as data

# h1 and h2 act by the weight, the same in the u-, w- and eta-bases
_WEIGHT = {
    "h1": (((0, 0, 0), lambda q, m: -2 * q.kb + q.lb - m),),
    "h2": (((0, 0, 0), lambda q, m: q.kb - 2 * q.lb - m),),
}


def _w_ratios(q: Line):
    """(kbar(kbar - 1), lbar(lbar - 1)) / (s(s - 1)), kept from a line's first
    read; gt_eigenvalue reads neither, so it is defined where s(s - 1) = 0."""
    if q.ratios is None:
        den = q.s * (q.s - 1)
        q.ratios = (q.kb * (q.kb - 1) / den, q.lb * (q.lb - 1) / den)
    return q.ratios


# basis -> generator -> ((offset, coefficient(line, m)), ...): the generator
# sends b_(k,l,m) to the sum of coefficient(line at (k, l), m) * b_((k,l,m) +
# offset).  The u- and w-tables hold the paper's formulas; eta's is derived.
ACTION_TABLE = {
    "u": {
        **_WEIGHT,
        "e1": (((-1, 0, 0), lambda q, m: q.nkb),),
        "e2": (((0, -1, 0), lambda q, m: q.nlb),
               ((1, 0, -1), lambda q, m: Fraction(m))),
        "f1": (((1, 0, 0), lambda q, m: q.kb - q.lb + m),
               ((0, -1, 1), lambda q, m: q.nlb)),
        "f2": (((0, 1, 0), lambda q, m: q.lb),
               ((-1, 0, 1), lambda q, m: q.kb)),
        "e12": (((0, 0, -1), lambda q, m: Fraction(-m)),),
        "f12": (((0, 0, 1), lambda q, m: q.s + m),
                ((1, 1, 0), lambda q, m: q.lb)),
    },
    "w": {
        **_WEIGHT,
        "e1": (((-1, 0, 0), lambda q, m: q.nkb),
               ((0, 1, -1), lambda q, m: -m * _w_ratios(q)[1])),
        "e2": (((0, -1, 0), lambda q, m: q.nlb),
               ((1, 0, -1), lambda q, m: m * _w_ratios(q)[0])),
        "f1": (((1, 0, 0), lambda q, m: _w_ratios(q)[0] * (q.s + m)),
               ((0, -1, 1), lambda q, m: q.nlb)),
        "f2": (((0, 1, 0), lambda q, m: _w_ratios(q)[1] * (q.s + m)),
               ((-1, 0, 1), lambda q, m: q.kb)),
        "e12": (((0, 0, -1), lambda q, m: Fraction(-m)),),
        "f12": (((0, 0, 1), lambda q, m: q.s + m),),
    },
}


def _transposed(c, dk, dl, dm, s):
    """-s c(line shifted by (-dk, -dl), m - dm), s = +-1: one call frame and
    at most one negation, or c itself where neither is needed."""
    if s < 0 and not (dk or dl or dm):
        return c
    if s > 0:
        return lambda q, m: -c(q.shift(-dk, -dl), m - dm)
    return lambda q, m: c(q.shift(-dk, -dl), m - dm)


def _dual_table(w: dict) -> dict:
    """The eta-table: eta_{k,l,m}(w_{k,l,m}) = 1 and (X eta)(v) =
    -eta(tau(X) v), as ``pairing`` checks.  With tau(X) = s Y, each w-entry
    (o, c) of Y gives eta[X] the entry (-o, -s c(. - o)), in Y's order (the
    axis entry first); the w-coefficients are read once, here."""
    return {x: tuple(((-dk, -dl, -dm), _transposed(c, dk, dl, dm, s))
                     for (dk, dl, dm), c in w[y])
            for x in w for (y, s), in [liealg.tau(x).items()]}


ACTION_TABLE["eta"] = _dual_table(ACTION_TABLE["w"])


def table_action(table: dict):
    """The (gen, params, idx[, want]) -> [(index, coefficient), ...] action
    read from a table shaped as ACTION_TABLE[basis], at call time.  A target
    with m < 0, or one that the optional predicate want(target) rejects, is
    dropped before its coefficient is evaluated, and a zero coefficient
    after.  It checks no parameters: the w- and eta-tables are read for an
    element or a descriptor, which refuse mu1 + mu2 in Z when they are
    made, and by gt_eigenvalue, which is defined there too."""

    def action(gen: str, p: Params, idx, want=None):
        entry = table.get(gen)
        if entry is None:
            raise ValueError(f"unknown generator {gen!r}")
        k, l, m = idx
        q = p.line(k, l)
        out = []
        for (dk, dl, dm), coefficient in entry:
            jdx = (k + dk, l + dl, m + dm)
            if m + dm >= 0 and (want is None or want(jdx)):
                c = coefficient(q, m)
                if c:
                    out.append((jdx, c))
        return out

    return action


BASIS_ACTIONS = {basis: table_action(table) for basis, table in ACTION_TABLE.items()}


def accumulate(v: ModuleElement, expand, basis: str) -> ModuleElement:
    """Sum c * a over the (target, a) pairs expand(idx) lists for each term
    c of v at idx, dropping zero sums; the result is read in `basis`."""
    return ModuleElement(v.params, basis, combine(
        (jdx, c * a) for idx, c in v.terms.items() for jdx, a in expand(idx)))


def linear_combination(v: ModuleElement, scaled) -> ModuleElement:
    """The sum of c * x over the (c, x) pairs, elements with v's parameters
    and basis; zero when there are none."""
    return ModuleElement(v.params, v.basis, combine(
        (idx, c * a) for c, x in scaled for idx, a in x.terms.items()))


def act(gen: str, v: ModuleElement) -> ModuleElement:
    """Apply one generator symbol to an element, in the element's basis;
    an unknown symbol is refused at once, even on zero."""
    liealg.require_generator(gen)
    action = BASIS_ACTIONS[v.basis]
    p = v.params
    return accumulate(v, lambda idx: action(gen, p, idx), v.basis)


def act_lie(x: dict, v: ModuleElement) -> ModuleElement:
    """Linear extension to an arbitrary Lie algebra element {gen: coeff}."""
    return linear_combination(v, ((c, act(gen, v)) for gen, c in x.items()))


def act_word(word, v: ModuleElement) -> ModuleElement:
    """Apply a product of generators; leftmost factor acts last."""
    out = v
    for gen in reversed(tuple(word)):
        out = act(gen, out)
    return out


def casimir_apply(v: ModuleElement) -> ModuleElement:
    return linear_combination(v, ((c, act_word(word, v)) for c, word in liealg.casimir_word()))


def gt_eigenvalue(idx, p: Params):
    """Eigenvalue triple of (h1, h2, f12*e12) on the w-basis vector at idx,
    read from the w-table, which checks no parameters, so that it is defined
    where mu1 + mu2 is an integer too; f12*e12 is e12's entry followed by
    f12's at its target.  The eta-vector at idx carries the same triple."""
    w = BASIS_ACTIONS["w"]
    h1, h2 = (dict(w(h, p, idx)).get(idx, 0) for h in ("h1", "h2"))  # 0 dropped
    f12e12 = sum(down * up for jdx, down in w("e12", p, idx)  # none at m = 0
                 for _, up in w("f12", p, jdx, idx.__eq__))
    return (h1, h2, f12e12)


def pairing(d: ModuleElement, v: ModuleElement):
    """<d, v> for an eta-element against a w-element with equal parameters."""
    if d.basis != "eta" or v.basis != "w":
        raise BasisMismatch("pairing takes an eta-element and a w-element")
    if d.params != v.params:
        raise BasisMismatch("pairing needs equal parameters")
    total = Fraction(0)
    for idx, c in d.terms.items():
        other = v.terms.get(idx)
        if other is not None:
            total = total + c * other
    return total or Fraction(0)


# ---------------------------------------------------------------------------
# change of basis

def _change_basis(v: ModuleElement, source: str, target: str, sign: int, shift: bool):
    """Expand source-vectors over the target basis:
    x_{k,l,m} = sum_n sign^n C(m,n) (lbar)^(n) / (s_n)^(n) y_{k+n,l+n,m-n},
    with ^(n) the raising factorial and s_n = kbar + lbar, or
    kbar + lbar + n - 1 when `shift` is set."""
    if v.basis != source:
        raise BasisMismatch(f"{source}_to_{target} needs a {source}-basis element")
    p = v.params
    p.require_generic_sum()

    def expand(idx):
        k, l, m = idx
        q = p.line(k, l)
        for n in range(m + 1):
            s_n = q.s + (n - 1) if shift else q.s
            a = (
                sign**n
                * math.comb(m, n)
                * raising_factorial(q.lb, n)
                / raising_factorial(s_n, n)
            )
            if a:
                yield (k + n, l + n, m - n), a

    return accumulate(v, expand, target)


def w_to_u(v: ModuleElement) -> ModuleElement:
    """Expand w-vectors in the u-basis via the raising-factorial sum."""
    return _change_basis(v, "w", "u", 1, False)


def u_to_w(v: ModuleElement) -> ModuleElement:
    """Inverse change of basis, u-vectors expanded over w-vectors."""
    return _change_basis(v, "u", "w", -1, True)
