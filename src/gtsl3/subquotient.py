"""Subquotients supported on lbar-interval index sets, for mu2 in Z.

The only index predicates the structure theory needs constrain
lbar = l - mu2: half-lines, finite intervals, and finite unions of these.
An LBarSet is stored as its cut points, the lbar at which membership
changes, so union is one sweep over run ends, complement flips a flag,
and difference is the complement of a union.
A ModuleDescriptor names the module (w-basis) or its dual (eta-basis) with
an optional LBarSet J, and owns the lbar coordinate: ``lbar_coordinates``
gives (k, lbar, m), and every reading of an index's lbar level goes
through it, as ``contains`` does; ``window`` is the one box centred on
mu2, and ``action`` is the ambient table action with the targets outside J
dropped before their coefficient is evaluated.  A subquotient's action on
elements, ``act_truncated``, is that action summed over the terms; the
paper's displayed formulas for the lbar in {0,1} band are kept in the test
suite as an oracle for it.  Generation (``explore.generate``) and closure
walk ``steps``, the six raising and lowering generators read at call time
from ``module.ACTION_TABLE["w"]``, or for the dual from the eta action read
off it, where the caller's filter alone decides a target, before its
coefficient is evaluated: generation's filter already lies inside J, and
closure asks about the ambient module.  ``hom`` reads the w-table too.

Closure of desc.J under the ambient action, desc without J, is checked
exactly on a finite window by ``is_closed(desc, box)``.  The predicates
only involve lbar, and no action term moves l by more than one, so escapes
in the k or m direction cannot change membership, and only a boundary
level of J -- a level in J with a neighbouring level (lbar +- 1) outside J
-- can send a vector out of J.  These are the levels next to J's cuts.
The window bounds which source indices on those levels get inspected.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product

from .errors import BasisMismatch
from .liealg import require_generator
from .module import (ACTION_TABLE, BASIS_ACTIONS, OFF_DIAGONAL, Box, ModuleElement, Params,
                     accumulate)


class LBarSet:
    """A set of integers in the lbar coordinate, stored as its cut points.

    cuts is the sorted tuple of integers c at which membership differs
    between c - 1 and c, and low says whether the set holds every small
    enough lbar.  So lbar is in the set when low differs from the parity
    of the number of cuts at or below lbar.  intervals lists the same set
    as sorted, disjoint, non-adjacent (lo, hi) runs, with lo None for
    -infinity and hi None for +infinity.
    """

    __slots__ = ("low", "cuts", "intervals")

    def __init__(self, runs):
        """The union of the given (lo, hi) runs, found in one sweep over
        their ends; an empty run (lo > hi) adds nothing."""
        depth = 0  # runs that cover the current lbar
        steps = {}
        for lo, hi in runs:
            if lo is not None and hi is not None and lo > hi:
                continue
            if lo is None:
                depth += 1
            else:
                steps[lo] = steps.get(lo, 0) + 1
            if hi is not None:
                steps[hi + 1] = steps.get(hi + 1, 0) - 1
        low = inside = depth > 0
        cuts = []
        for c in sorted(steps):
            depth += steps[c]
            if (depth > 0) is not inside:
                inside = not inside
                cuts.append(c)
        self._set(low, tuple(cuts))

    def _set(self, low: bool, cuts: tuple) -> None:
        self.low, self.cuts = low, cuts
        starts = [None, *cuts] if low else list(cuts)
        if len(starts) % 2:
            starts.append(None)  # the last run is unbounded above
        self.intervals = tuple(
            (lo, None if end is None else end - 1)
            for lo, end in zip(starts[::2], starts[1::2])
        )

    @classmethod
    def ge(cls, c: int) -> "LBarSet":
        return cls([(c, None)])

    @classmethod
    def le(cls, c: int) -> "LBarSet":
        return cls([(None, c)])

    @classmethod
    def between(cls, a: int, b: int) -> "LBarSet":
        return cls([(a, b)])

    @classmethod
    def eq(cls, c: int) -> "LBarSet":
        return cls([(c, c)])

    @classmethod
    def empty(cls) -> "LBarSet":
        return cls([])

    @classmethod
    def all(cls) -> "LBarSet":
        return cls([(None, None)])

    def contains(self, lbar: int) -> bool:
        return bool(bisect_right(self.cuts, lbar) % 2) != self.low

    def complement(self) -> "LBarSet":
        out = LBarSet.__new__(LBarSet)
        out._set(not self.low, self.cuts)
        return out

    def difference(self, other: "LBarSet") -> "LBarSet":
        return LBarSet(self.complement().intervals + other.intervals).complement()

    def runs(self):
        """Each run as (form, ends), form one of all / le / ge / eq / in:
        the shapes that repr and the JSON encoding name a run by."""
        for lo, hi in self.intervals:
            if lo is None:
                yield ("all", ()) if hi is None else ("le", (hi,))
            elif hi is None:
                yield "ge", (lo,)
            else:
                yield ("eq", (lo,)) if lo == hi else ("in", (lo, hi))

    def __eq__(self, other):
        return (isinstance(other, LBarSet) and self.low == other.low
                and self.cuts == other.cuts)

    def __hash__(self):
        return hash((self.low, self.cuts))

    def __repr__(self):
        """The runs as RUN_FORMS prints them, joined by " | ", which
        serialize reads back; the empty set's "lbar in {}" it refuses, as it
        refuses every empty interval."""
        bits = [RUN_FORMS[form][0].format(*ends) for form, ends in self.runs()]
        return " | ".join(bits) if bits else "lbar in {}"


# each run form: the text repr prints it as, a {} for each end, and the
# set of one run made from its ends; serialize reads sets from these texts
RUN_FORMS = {"all": ("all", LBarSet.all), "le": ("lbar<={}", LBarSet.le),
             "ge": ("lbar>={}", LBarSet.ge), "eq": ("lbar={}", LBarSet.eq),
             "in": ("lbar in {}..{}", LBarSet.between)}


# ---------------------------------------------------------------------------
# module descriptors and truncated actions

def lbar_coordinates(idx, p: Params):
    """(k, lbar, m) for the index (k, l, m), with lbar = l - mu2 for mu2 in Z."""
    k, l, m = idx
    return k, l - p.mu2_int(), m


@dataclass
class ModuleDescriptor:
    """A (sub)quotient of the module (w-basis) or of its dual (eta-basis).

    Made only off mu1 + mu2 in Z, where the w- and eta-bases exist, and,
    when J is given, only for mu2 in Z, since J reads lbar."""

    params: Params
    dual: bool = False
    J: LBarSet | None = None

    def __post_init__(self):
        self.params.require_generic_sum()
        if self.J is not None:
            self.params.mu2_int()

    @property
    def basis(self) -> str:
        return "eta" if self.dual else "w"

    def contains(self, idx) -> bool:
        return self.J is None or self.J.contains(lbar_coordinates(idx, self.params)[1])

    def indices(self, box: Box):
        return [idx for idx in box if self.contains(idx)]

    def action(self, gen: str, idx) -> dict:
        """{target index: coefficient} for the generator on one basis vector:
        the ambient action, which lists only nonzero coefficients, with the
        targets outside J dropped before their coefficient is evaluated."""
        return dict(BASIS_ACTIONS[self.basis](gen, self.params, idx, self.contains))

    def steps(self, idx, want):
        """(generator, target) lazily, in OFF_DIAGONAL then entry order, for
        each target with m >= 0 that want(target) keeps, checked before its
        coefficient is evaluated, and whose coefficient is nonzero.  J is
        not read: want alone decides.  h1 and h2 reach nothing new.  The
        dual reads BASIS_ACTIONS["eta"], as bound at the call."""
        if self.dual:
            eta = BASIS_ACTIONS["eta"]
            for gen in OFF_DIAGONAL:
                for jdx, _ in eta(gen, self.params, idx, want):
                    yield gen, jdx
            return
        k, l, m = idx
        q = self.params.line(k, l)
        for gen in OFF_DIAGONAL:
            for (dk, dl, dm), coefficient in ACTION_TABLE["w"][gen]:
                jdx = (k + dk, l + dl, m + dm)
                if m + dm >= 0 and want(jdx) and coefficient(q, m):
                    yield gen, jdx

    def window(self, r: int) -> Box:
        """The radius-r box, centred on l = mu2 when mu2 is an integer."""
        lcenter = self.params.mu2_int() if self.params.mu2_integral() else 0
        return Box.radius(r, lcenter)

    def element(self, terms) -> ModuleElement:
        return ModuleElement(self.params, self.basis, terms)

    def describe(self) -> str:
        name = "dual" if self.dual else "plain"
        return f"{name}:{'full' if self.J is None else repr(self.J)}"


def act_truncated(gen: str, v: ModuleElement, J: LBarSet) -> ModuleElement:
    """The action on the subquotient J: each term's descriptor action, so no
    coefficient is evaluated toward a target outside J.  The support of v
    must lie in J, and an unknown symbol is refused at once, even on zero."""
    require_generator(gen)
    if v.basis not in ("w", "eta"):
        raise BasisMismatch("subquotients live in the w- or eta-basis")
    desc = ModuleDescriptor(v.params, v.basis == "eta", J)
    for idx in v.terms:
        if not desc.contains(idx):
            raise ValueError(f"support index {idx} outside {J!r}")
    return accumulate(v, lambda idx: desc.action(gen, idx).items(), v.basis)


@dataclass
class ClosureVerdict:
    closed: bool
    witnesses: list

    def __bool__(self):
        return self.closed


def is_closed(desc: ModuleDescriptor, box: Box) -> ClosureVerdict:
    """Does the ambient action keep every vector supported in desc.J inside J?

    The ambient module is desc without J: ``steps`` reads no J, and its
    filter, J.contains at lbar = l - mu2, drops the targets inside J before
    their coefficient is evaluated.  Only window indices on a boundary level
    of J are visited: a level in J whose neighbour lbar - 1 or lbar + 1 lies
    outside J, that is, the level on J's side of one of its cuts.  An action
    term moves l by at most one, so a vector on any other level of J cannot
    leave J.  The witnesses are (source, generator, target) triples in
    window order, exactly those a sweep over every index of J would find.
    Without J, the whole index set is closed."""
    J = desc.J
    if J is None:
        return ClosureVerdict(True, [])
    t = desc.params.mu2_int()
    levels = {t + c - (not J.contains(c)) for c in J.cuts}  # the boundary levels, as l
    rows = sorted(l for l in levels if box.lmin <= l <= box.lmax)
    visited = product(range(box.kmin, box.kmax + 1), rows, range(box.mmax + 1))  # window order
    witnesses = [(idx, gen, jdx) for idx in visited
                 for gen, jdx in desc.steps(idx, lambda jdx: not J.contains(jdx[1] - t))]
    return ClosureVerdict(not witnesses, witnesses)


def classify(J: LBarSet, box: Box, p: Params) -> str:
    """submodule / quotient / subquotient / none in the w-basis, verified on
    the window.

    J is a subquotient when J = J2 \\ J1 with J1 within J2 both closed.  The
    least closed J2 containing J serves if any does, since closed sets are
    closed under intersection; it is found by adding the levels that the
    closure witnesses land on until none is left.  The full set, None, and
    a set missing the window are refused: no index of either is inspected.
    """
    def closed(S):
        return is_closed(ModuleDescriptor(p, J=S), box)

    if J is None:
        raise ValueError("classify needs a proper index set, not 'full'")
    if not any(ModuleDescriptor(p, J=J).contains((box.kmin, l, 0))
               for l in range(box.lmin, box.lmax + 1)):
        raise ValueError("window does not meet the index set")
    verdict = closed(J)
    if verdict:
        return "submodule"
    if closed(J.complement()):
        return "quotient"
    closure = J
    while not verdict:
        landed = [lbar_coordinates(jdx, p)[1] for _, _, jdx in verdict.witnesses]
        closure = LBarSet(closure.intervals + tuple((lb, lb) for lb in landed))
        verdict = closed(closure)
    return "subquotient" if closed(closure.difference(J)) else "none"
