"""Subquotients supported on lbar-interval index sets, for mu2 in Z.

The only index predicates the structure theory needs constrain
lbar = l - mu2: half-lines, finite intervals, and finite unions of these.
A subquotient's action is the ambient w- or eta-action (module.act) with
every term whose index leaves the set dropped; the paper's displayed
formulas for the lbar in {0,1} band are kept in the test suite as an
oracle for it.  The indices of a subquotient on a window are
hom.ModuleDescriptor.indices.  Closure of a set under the ambient
action is checked exactly on a finite window.  The predicates only involve
lbar, and no action term in the u-, w- or eta-basis moves l by more than
one, so escapes in the k or m direction cannot change membership, and only
a boundary level of J -- a level in J with a neighbouring level (lbar +- 1)
outside J -- can send a vector out of J.  The window bounds which source
indices on those levels get inspected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BasisMismatch
from .module import BASIS_ACTIONS, OFF_DIAGONAL, Box, ModuleElement, Params, act
from .scalars import scalar_is_zero

_INF = None  # stands for an unbounded interval end


class LBarSet:
    """Union of integer intervals in the lbar coordinate.

    Stored as a sorted tuple of disjoint, non-adjacent (lo, hi) pairs where
    lo is None for -infinity and hi is None for +infinity.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals):
        self.intervals = _normalize(intervals)

    @classmethod
    def ge(cls, c: int) -> "LBarSet":
        return cls([(c, _INF)])

    @classmethod
    def le(cls, c: int) -> "LBarSet":
        return cls([(_INF, c)])

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
        return cls([(_INF, _INF)])

    def contains(self, lbar: int) -> bool:
        for lo, hi in self.intervals:
            if (lo is _INF or lbar >= lo) and (hi is _INF or lbar <= hi):
                return True
        return False

    def complement(self) -> "LBarSet":
        out = []
        cursor = _INF  # lower end of the uncovered region
        reached_top = False
        for lo, hi in self.intervals:
            if lo is not _INF:
                out.append((cursor, lo - 1))
            if hi is _INF:
                reached_top = True
                break
            cursor = hi + 1
        if not reached_top:
            out.append((cursor, _INF))
        return LBarSet(out)

    def difference(self, other: "LBarSet") -> "LBarSet":
        out = self
        for lo, hi in other.intervals:
            out = out._remove(lo, hi)
        return out

    def _remove(self, lo, hi) -> "LBarSet":
        kept = []
        for a, b in self.intervals:
            # portion below lo
            if lo is not _INF and (a is _INF or a < lo):
                top = lo - 1 if (b is _INF or b >= lo - 1) else b
                kept.append((a, top))
            # portion above hi
            if hi is not _INF and (b is _INF or b > hi):
                bottom = hi + 1 if (a is _INF or a <= hi + 1) else a
                kept.append((bottom, b))
        return LBarSet(kept)

    def __eq__(self, other):
        return isinstance(other, LBarSet) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        if not self.intervals:
            return "lbar in {}"
        bits = []
        for lo, hi in self.intervals:
            if lo is _INF and hi is _INF:
                bits.append("all")
            elif lo is _INF:
                bits.append(f"lbar<={hi}")
            elif hi is _INF:
                bits.append(f"lbar>={lo}")
            elif lo == hi:
                bits.append(f"lbar={lo}")
            else:
                bits.append(f"lbar in {lo}..{hi}")
        return " | ".join(bits)


def _normalize(intervals):
    cleaned = []
    for lo, hi in intervals:
        if lo is not _INF and hi is not _INF and lo > hi:
            continue
        cleaned.append((lo, hi))
    if not cleaned:
        return ()
    lo_key = lambda iv: float("-inf") if iv[0] is _INF else iv[0]
    hi_key = lambda iv: float("inf") if iv[1] is _INF else iv[1]
    cleaned.sort(key=lambda iv: (lo_key(iv), hi_key(iv)))
    merged = [cleaned[0]]
    for lo, hi in cleaned[1:]:
        plo, phi = merged[-1]
        if phi is _INF or lo is _INF or lo <= phi + 1:
            if phi is not _INF and (hi is _INF or hi > phi):
                merged[-1] = (plo, hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


# ---------------------------------------------------------------------------
# truncated actions

def act_truncated(gen: str, v: ModuleElement, J: LBarSet) -> ModuleElement:
    """Ambient action followed by projection to J; support must lie in J."""
    if v.basis not in ("w", "eta"):
        raise BasisMismatch("subquotients live in the w- or eta-basis")
    p = v.params
    t = p.mu2_int()
    for idx in v.terms:
        if not J.contains(idx[1] - t):
            raise ValueError(f"support index {idx} outside {J!r}")
    out = act(gen, v)
    return ModuleElement(
        p, v.basis, {jdx: c for jdx, c in out.terms.items() if J.contains(jdx[1] - t)}
    )


@dataclass
class ClosureVerdict:
    closed: bool
    witnesses: list

    def __bool__(self):
        return self.closed


def is_closed(J: LBarSet, basis: str, box: Box, p: Params) -> ClosureVerdict:
    """Does the ambient action keep every J-supported vector inside J?

    Only window indices on a boundary level of J are inspected: a level in
    J whose neighbour lbar - 1 or lbar + 1 lies outside J.  An action term
    moves l by at most one, so a vector on any other level of J cannot
    leave J.  The witnesses are (source, generator, target) triples in
    window order, exactly those a sweep over every index of J would find.
    """
    action = BASIS_ACTIONS[basis]
    t = p.mu2_int()
    boundary = {
        l
        for l in range(box.lmin, box.lmax + 1)
        if J.contains(l - t) and not (J.contains(l - t - 1) and J.contains(l - t + 1))
    }
    witnesses = []
    for idx in box:
        if idx[1] not in boundary:
            continue
        for gen in OFF_DIAGONAL:
            for jdx, c in action(gen, p, idx):
                if scalar_is_zero(c):
                    continue
                if not J.contains(jdx[1] - t):
                    witnesses.append((idx, gen, jdx))
    return ClosureVerdict(not witnesses, witnesses)


def classify(J: LBarSet, box: Box, p: Params) -> str:
    """submodule / quotient / subquotient / none in the w-basis, verified on
    the window.

    J is a subquotient when J = J2 \\ J1 with J1 within J2 both closed.  The
    least closed J2 containing J serves if any does, since closed sets are
    closed under intersection; it is found by adding the levels that the
    closure witnesses land on until none is left.
    """
    verdict = is_closed(J, "w", box, p)
    if verdict:
        return "submodule"
    if is_closed(J.complement(), "w", box, p):
        return "quotient"
    t = p.mu2_int()
    closure = J
    while not verdict:
        landed = [(jdx[1] - t, jdx[1] - t) for _, _, jdx in verdict.witnesses]
        closure = LBarSet(closure.intervals + tuple(landed))
        verdict = is_closed(closure, "w", box, p)
    return "subquotient" if is_closed(closure.difference(J), "w", box, p) else "none"
