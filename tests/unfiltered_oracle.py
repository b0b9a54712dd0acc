"""The equation assembly, ratio recurrence, generation search and closure
sweep as they stood before the action took a target predicate: every
coefficient of a generator is evaluated, and the targets the caller does
not read are dropped afterwards.

``hom.intertwiner_equations``, ``hom.solve_by_recurrence``,
``explore.generate`` and ``subquotient.is_closed`` must return exactly
what these return, down to the order and printed form of every row and
value; the tests compare the two.

The equations leave out an edge whose two ends the rows kept before it
already force to zero.  ``ForcedZeros`` finds those ends by spreading zero
along the kept rows, not by the engine's union-find.

The eta action is read off the w-table: an eta read of X at a toward j is
the w read of Y at j toward a, where tau(X) = s Y, so ``entry_offsets``
lists X's eta offsets as Y's w-offsets negated, in Y's entry order.
"""

from collections import deque
from fractions import Fraction

from gtsl3.errors import ObstructionAtIndex
from gtsl3.explore import GenerationCertificate
from gtsl3.hom import HomSolution, _check_problem
from gtsl3.module import ACTION_TABLE, AXIS_PAIRS, BASIS_ACTIONS, OFF_DIAGONAL, TAU
from gtsl3.subquotient import ClosureVerdict


def entry_offsets(basis, gen) -> list:
    """The offsets of gen's targets in the basis, in entry order."""
    if basis == "eta":
        return [tuple(-d for d in o) for o, _ in ACTION_TABLE["w"][TAU[gen][0]]]
    return [o for o, _ in ACTION_TABLE[basis][gen]]


def _action(desc, gen, idx) -> dict:
    """The descriptor's action: every coefficient evaluated, then the
    targets outside J dropped."""
    return {jdx: c for jdx, c in BASIS_ACTIONS[desc.basis](gen, desc.params, idx)
            if desc.contains(jdx)}


def _comparison_rows(source, target, gen, a, inside, box) -> dict:
    src = _action(source, gen, a)
    tgt = _action(target, gen, a)
    rows = {}
    # the targets either table lists, in table order
    offsets = dict.fromkeys(offset for desc in (source, target)
                            for offset in entry_offsets(desc.basis, gen))
    for j in (tuple(i + d for i, d in zip(a, offset)) for offset in offsets):
        if j not in src and j not in tgt:
            continue
        if j not in inside:
            if box.contains(j):
                raise AssertionError("truncation kept an index outside J")
            continue  # unknown outside the window: drop the equation
        row = {}
        cs = src.get(j)
        ct = tgt.get(j)
        if cs is not None:
            row[j] = cs
        if ct is not None:
            row[a] = -ct
        rows[j] = row
    return rows


class ForcedZeros:
    """The columns that the rows kept so far force to zero: a one-unknown
    row forces its column, and a row of two nonzero coefficients carries a
    zero from either column to the other."""

    def __init__(self):
        self.zero, self.links = set(), {}

    def keep(self, row: dict):
        cols = list(row)
        for c in cols:
            self.links.setdefault(c, set()).update(d for d in cols if d != c)
        spread = cols if len(cols) == 1 or self.zero.intersection(cols) else []
        while spread:
            c = spread.pop()
            if c not in self.zero:
                self.zero.add(c)
                spread.extend(self.links.get(c, ()))

    def both(self, a, j) -> bool:
        return a in self.zero and j in self.zero


def intertwiner_equations(source, target, box, drop_forced_zeros=True):
    """(indices, rows): one row per edge with a row at either end, at the
    edge's lower end, in window and then table order, and no row on an edge
    whose two ends the rows kept before it force to zero, unless
    drop_forced_zeros is False.  Between the module and its dual the row is
    the first one on the edge, {j: cs, a: -ct} from plain to dual and
    {j: -cs, a: ct} from dual to plain; in a same-basis problem, where each
    row on an edge is a multiple of x_j - x_a, it is {j: 1, a: -1}."""
    _check_problem(source, target)
    indices = source.indices(box)
    inside = set(indices)
    found = {}  # (lower end, upper end) -> its rows from both ends, in order
    for a in indices:
        for gen in OFF_DIAGONAL:
            for j, row in _comparison_rows(source, target, gen, a, inside, box).items():
                found.setdefault((min(a, j), max(a, j)), []).append(row)
    same = source.basis == target.basis
    rows, zeros = [], ForcedZeros()
    for a in indices:
        for gen in OFF_DIAGONAL:
            for offset in entry_offsets(source.basis, gen):
                j = tuple(i + d for i, d in zip(a, offset))
                if j < a or (a, j) not in found:
                    continue
                if same:
                    assert all(r[j] == -r[a] for r in found[a, j]), (a, j)
                    row = {j: Fraction(1), a: Fraction(-1)}
                elif source.basis == "eta":
                    row = {c: -v for c, v in found[a, j][0].items()}
                else:
                    row = found[a, j][0]
                if not (drop_forced_zeros and zeros.both(a, j)):
                    rows.append(row)
                    zeros.keep(row)
    return indices, rows


def solve_by_recurrence(source, target, seed_idx, seed_value, box):
    _check_problem(source, target)
    seed_idx = tuple(seed_idx)
    if not box.contains(seed_idx):
        raise ValueError(f"seed index {seed_idx} is outside the window {box}")
    if not source.contains(seed_idx):
        lbar = seed_idx[1] - source.params.mu2_int()
        raise ValueError(f"seed index {seed_idx} has lbar = {lbar}, "
                         f"outside the source's index set {source.J!r}")
    x = {seed_idx: seed_value}
    queue = deque([seed_idx])
    inside = set(source.indices(box))
    while queue:
        a = queue.popleft()
        for axis, (up, down) in enumerate(AXIS_PAIRS):
            for direction in (-1, +1):
                step = [0, 0, 0]
                step[axis] = direction
                nxt = (a[0] + step[0], a[1] + step[1], a[2] + step[2])
                if nxt in x or nxt not in inside:
                    continue
                hi, lo = (a, nxt) if direction < 0 else (nxt, a)
                for at, to, gen in ((hi, lo, up), (lo, hi, down)):
                    row = _comparison_rows(source, target, gen, at, inside, box).get(to)
                    if row is not None:
                        break
                else:
                    continue  # no information along this edge
                if nxt not in row:
                    side = "source" if nxt == to else "target"
                    raise ObstructionAtIndex(at, gen, f"{side} coefficient vanishes")
                x[nxt] = (-row[a] * x[a] if a in row else 0) / row[nxt]
                queue.append(nxt)
    missing = [i for i in inside if i not in x]
    if missing:
        raise ValueError(f"window indices unreachable from seed: {missing[:3]}")
    return HomSolution(source, target, box, x)


def generate(start, desc, box) -> GenerationCertificate:
    start = [tuple(i) for i in start]
    allowed = set(desc.indices(box))
    reached = set(start)
    paths = {}
    frontier = list(start)
    while frontier:
        nxt = []
        for idx in frontier:
            for gen in OFF_DIAGONAL:
                for jdx in _action(desc, gen, idx):
                    if jdx in allowed and jdx not in reached:
                        reached.add(jdx)
                        paths[jdx] = (idx, gen)
                        nxt.append(jdx)
        frontier = nxt
    missing = sorted(allowed - reached)
    return GenerationCertificate(
        desc.describe(), box, sorted(start), sorted(reached), missing, paths
    )


def is_closed(J, basis, box, p) -> ClosureVerdict:
    action = BASIS_ACTIONS[basis]
    t = p.mu2_int()
    boundary = {t + c - (not J.contains(c)) for c in J.cuts}
    witnesses = []
    for idx in box:
        if idx[1] not in boundary:
            continue
        for gen in OFF_DIAGONAL:
            for jdx, _ in action(gen, p, idx):
                if not J.contains(jdx[1] - t):
                    witnesses.append((idx, gen, jdx))
    return ClosureVerdict(not witnesses, witnesses)
