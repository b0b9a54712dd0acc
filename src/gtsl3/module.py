"""The module M_{mu1,mu2}: finitely supported elements over the index set
Z^2 x Z_{>=0}, the sl3 action in the u- and w-bases and in the eta-basis of
the dual, the pairing of the dual with the module, change of basis, and
Gelfand-Tsetlin eigenvalue data.

Indices are plain tuples (k, l, m).  All action formulas shift indices by
at most one step, so finite support is preserved and the full module action
is computed exactly -- finite windows enter only in the search and solve
layers.  Throughout, kbar = k - mu1 and lbar = l - mu2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import liealg
from .errors import BasisMismatch, NonGenericParameters, RequiresIntegralMu2
from .scalars import (
    MU1,
    MU2,
    RatFunc,
    binomial,
    raising_factorial,
    scalar_is_integer,
    scalar_is_zero,
)

_UNKNOWN = object()  # a Params fact not yet worked out

# the raising and lowering generators: the ones that move an index
OFF_DIAGONAL = ("e1", "e2", "f1", "f2", "e12", "f12")


class Params:
    """The two module parameters plus decidable genericity predicates.

    Either both parameters are exact rationals (specialized mode) or at
    least one is a rational function (symbolic mode).  A symbolic parameter
    may still be an integer constant -- e.g. mu2 = 0 with mu1 left symbolic
    -- and the predicates see through that exactly.  The two facts the
    per-vector actions consult, whether mu1 + mu2 is integral and the
    integer value of mu2, are worked out on first use and then kept.
    """

    __slots__ = ("mu1", "mu2", "_sum_integral", "_mu2_int")

    def __init__(self, mu1, mu2):
        self.mu1 = mu1 if isinstance(mu1, RatFunc) else Fraction(mu1)
        self.mu2 = mu2 if isinstance(mu2, RatFunc) else Fraction(mu2)
        self._sum_integral = _UNKNOWN
        self._mu2_int = _UNKNOWN

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

    def __eq__(self, other):
        return (
            isinstance(other, Params)
            and self.mu1 == other.mu1
            and self.mu2 == other.mu2
        )

    __hash__ = None

    def __repr__(self):
        return f"Params(mu1={self.mu1}, mu2={self.mu2})"


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
    coefficients are exact and nonzero.
    """

    __slots__ = ("params", "basis", "terms")

    def __init__(self, params: Params, basis: str, terms=None):
        if basis not in ("u", "w", "eta"):
            raise ValueError(f"unknown basis {basis!r}")
        self.params = params
        self.basis = basis
        data = {}
        if terms:
            for idx, c in terms.items():
                if idx[2] < 0:
                    raise ValueError(f"index {idx} has m < 0")
                if not scalar_is_zero(c):
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
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            s = terms.get(idx, 0) + c
            if scalar_is_zero(s):
                terms.pop(idx, None)
            else:
                terms[idx] = s
        out = ModuleElement.__new__(ModuleElement)
        out.params, out.basis, out.terms = self.params, self.basis, terms
        return out

    def __neg__(self):
        out = ModuleElement.__new__(ModuleElement)
        out.params, out.basis = self.params, self.basis
        out.terms = {idx: -c for idx, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "ModuleElement":
        if scalar_is_zero(c):
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
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[idx] == other.terms[idx] for idx in self.terms)

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return f"<zero {self.basis}-element>"
        bits = ", ".join(f"{idx}: {c}" for idx, c in self.items())
        return f"<{self.basis}-element {{{bits}}}>"


def basis_vector(params: Params, basis: str, idx) -> ModuleElement:
    if basis == "w":
        params.require_generic_sum()
    return ModuleElement(params, basis, {tuple(idx): Fraction(1)})


def u_vector(params, k, l, m) -> ModuleElement:
    return basis_vector(params, "u", (k, l, m))


def w_vector(params, k, l, m) -> ModuleElement:
    return basis_vector(params, "w", (k, l, m))


def eta_vector(params, k, l, m) -> ModuleElement:
    return basis_vector(params, "eta", (k, l, m))


# ---------------------------------------------------------------------------
# single-basis-vector actions; each returns [(index, coefficient), ...]

def _weight(gen: str, kb, lb, m: int):
    """Eigenvalue of gen, h1 or h2, on the basis vector with these kbar,
    lbar and m, the same in the u-, w- and eta-bases."""
    if gen == "h1":
        return -2 * kb + lb - m
    return kb - 2 * lb - m


def act_u_basis(gen: str, p: Params, idx):
    k, l, m = idx
    kb = p.kbar(k)
    lb = p.lbar(l)
    if gen == "e1":
        return [((k - 1, l, m), -kb)]
    if gen == "e2":
        out = [((k, l - 1, m), -lb)]
        if m > 0:
            out.append(((k + 1, l, m - 1), Fraction(m)))
        return out
    if gen in ("h1", "h2"):
        return [(idx, _weight(gen, kb, lb, m))]
    if gen == "f1":
        return [((k + 1, l, m), kb - lb + m), ((k, l - 1, m + 1), -lb)]
    if gen == "f2":
        return [((k, l + 1, m), lb), ((k - 1, l, m + 1), kb)]
    if gen == "e12":
        return [((k, l, m - 1), Fraction(-m))] if m > 0 else []
    if gen == "f12":
        return [((k, l, m + 1), kb + lb + m), ((k + 1, l + 1, m), lb)]
    raise ValueError(f"unknown generator {gen!r}")


def act_w_basis(gen: str, p: Params, idx):
    p.require_generic_sum()
    k, l, m = idx
    kb = p.kbar(k)
    lb = p.lbar(l)
    den = (kb + lb) * (kb + lb - 1)
    if gen == "e1":
        out = [((k - 1, l, m), -kb)]
        if m > 0:
            out.append(((k, l + 1, m - 1), -m * lb * (lb - 1) / den))
        return out
    if gen == "e2":
        out = [((k, l - 1, m), -lb)]
        if m > 0:
            out.append(((k + 1, l, m - 1), m * kb * (kb - 1) / den))
        return out
    if gen in ("h1", "h2"):
        return [(idx, _weight(gen, kb, lb, m))]
    if gen == "f1":
        return [
            ((k + 1, l, m), kb * (kb - 1) * (kb + lb + m) / den),
            ((k, l - 1, m + 1), -lb),
        ]
    if gen == "f2":
        return [
            ((k, l + 1, m), lb * (lb - 1) * (kb + lb + m) / den),
            ((k - 1, l, m + 1), kb),
        ]
    if gen == "e12":
        return [((k, l, m - 1), Fraction(-m))] if m > 0 else []
    if gen == "f12":
        return [((k, l, m + 1), kb + lb + m)]
    raise ValueError(f"unknown generator {gen!r}")


def act_eta_basis(gen: str, p: Params, idx):
    """The dual's action, with eta_{k,l,m}(w_{k,l,m}) = 1 and the twist by
    the involution tau: (X eta)(v) = -eta(tau(X) v), as ``pairing`` checks."""
    p.require_generic_sum()
    k, l, m = idx
    kb = p.kbar(k)
    lb = p.lbar(l)
    den = (kb + lb - 1) * (kb + lb - 2)
    if gen == "e1":
        out = [((k - 1, l, m), -(kb - 1) * (kb - 2) * (kb + lb + m - 1) / den)]
        if m > 0:
            out.append(((k, l + 1, m - 1), lb + 1))
        return out
    if gen == "e2":
        out = [((k, l - 1, m), -(lb - 1) * (lb - 2) * (kb + lb + m - 1) / den)]
        if m > 0:
            out.append(((k + 1, l, m - 1), -(kb + 1)))
        return out
    if gen in ("h1", "h2"):
        return [(idx, _weight(gen, kb, lb, m))]
    if gen == "f1":
        return [
            ((k + 1, l, m), kb + 1),
            ((k, l - 1, m + 1), (m + 1) * (lb - 1) * (lb - 2) / den),
        ]
    if gen == "f2":
        return [
            ((k, l + 1, m), lb + 1),
            ((k - 1, l, m + 1), -(m + 1) * (kb - 1) * (kb - 2) / den),
        ]
    if gen == "e12":
        return [((k, l, m - 1), kb + lb + m - 1)] if m > 0 else []
    if gen == "f12":
        return [((k, l, m + 1), Fraction(-(m + 1)))]
    raise ValueError(f"unknown generator {gen!r}")


BASIS_ACTIONS = {"u": act_u_basis, "w": act_w_basis, "eta": act_eta_basis}


def _accumulate(v: ModuleElement, expand, basis: str) -> ModuleElement:
    """Sum c * a over the (target, a) pairs expand(idx) lists for each term
    c of v at idx, dropping zero sums; the result is read in `basis`."""
    terms = {}
    for idx, c in v.terms.items():
        for jdx, a in expand(idx):
            s = c * a
            if jdx in terms:
                s = terms[jdx] + s
            if scalar_is_zero(s):
                terms.pop(jdx, None)
            else:
                terms[jdx] = s
    return ModuleElement(v.params, basis, terms)


def act(gen: str, v: ModuleElement) -> ModuleElement:
    """Apply one generator symbol to an element, in the element's basis."""
    action = BASIS_ACTIONS[v.basis]
    p = v.params
    return _accumulate(v, lambda idx: action(gen, p, idx), v.basis)


def act_lie(x: dict, v: ModuleElement) -> ModuleElement:
    """Linear extension to an arbitrary Lie algebra element {gen: coeff}."""
    out = ModuleElement(v.params, v.basis)
    for gen, c in x.items():
        out = out + act(gen, v).scale(c)
    return out


def act_word(word, v: ModuleElement) -> ModuleElement:
    """Apply a product of generators; leftmost factor acts last."""
    out = v
    for gen in reversed(tuple(word)):
        out = act(gen, out)
    return out


def casimir_apply(v: ModuleElement) -> ModuleElement:
    out = ModuleElement(v.params, v.basis)
    for c, word in liealg.casimir_word():
        out = out + act_word(word, v).scale(c)
    return out


def gt_eigenvalue(idx, p: Params):
    """Eigenvalue triple of (h1, h2, f12*e12) on the w-basis vector at idx;
    the eta-vector at idx carries the same triple."""
    k, l, m = idx
    kb = p.kbar(k)
    lb = p.lbar(l)
    return (_weight("h1", kb, lb, m), _weight("h2", kb, lb, m), -m * (kb + lb + m - 1))


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
    if scalar_is_zero(total):
        return Fraction(0)
    return total


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
        lb = p.lbar(l)
        base = p.kbar(k) + lb
        for n in range(m + 1):
            s_n = base + (n - 1) if shift else base
            a = (
                sign**n
                * binomial(m, n)
                * raising_factorial(lb, n)
                / raising_factorial(s_n, n)
            )
            if not scalar_is_zero(a):
                yield (k + n, l + n, m - n), a

    return _accumulate(v, expand, target)


def w_to_u(v: ModuleElement) -> ModuleElement:
    """Expand w-vectors in the u-basis via the raising-factorial sum."""
    return _change_basis(v, "w", "u", 1, False)


def u_to_w(v: ModuleElement) -> ModuleElement:
    """Inverse change of basis, u-vectors expanded over w-vectors."""
    return _change_basis(v, "u", "w", -1, True)
