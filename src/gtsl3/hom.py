"""Intertwiner computation between (sub)quotients of the module and its dual.

Each side of a Hom problem is a ``subquotient.ModuleDescriptor``, imported
here as ``hom.ModuleDescriptor``.  The rows of either side read the w-part
of ``module.ACTION_TABLE``, one edge of ``_edges`` at a time: the window,
already cut to the index set, alone decides a target, before its
coefficients are evaluated.  The eta action is read off that same w-table.

Both sides of every Hom problem here decompose into one-dimensional
simultaneous eigenspaces with matching eigenvalue triples, so an
intertwiner is diagonal: phi(b_i) = x_i b'_i for one unknown scalar per
index.  Matching coefficients in phi(X b_i) = X phi(b_i) turns each
(generator, index) pair into equations with at most two unknowns; a finite
window makes the system exactly solvable.

Each edge {a, j = a + o}, o > 0, of the index graph can give a row at both
ends, from X at a and from the opposite generator Y at j.  ``_edges`` lists
X's w-coefficient F beside Y's, B, and the sign s of tau(X) = s Y from
``module.TAU``: the eta action, (X eta)(v) = -eta(tau(X) v), has
eta_X(a -> j) = -s B(j) and eta_Y(j -> a) = -s F(a), so no row needs it.
Between the module and its dual the upper-end row is s times the lower-end
row, so ``intertwiner_equations`` reads each edge once, at its lower end, in
window order, and ``solve_by_recurrence`` each axis edge once a step.  In a
same-basis problem (plain->plain or dual->dual) both rows are multiples of
x_j - x_a, nonzero where F(a) or B(j) is: the row is {j: 1, a: -1}, whose
+-1 keep RatFunc out of a symbolic elimination, and a recurrence step keeps
the known value.  The kept rows span those of both ends, and
``verify_solution`` flags the same edges.

An edge is also left out, before a coefficient is read, once earlier rows
put both its ends in the zero tree of a union-find begun at the first
one-unknown row.  Each column of the zero tree is linked to a one-unknown row
by kept rows of two nonzero coefficients, so any x satisfying the kept rows
vanishes there and each left-out row reads 0 = 0: ``verify_solution`` gives
the same verdict, though it may list fewer violated rows.

The closed-form families are products of Pochhammer symbols
x^(n) = Gamma(x+n)/Gamma(x), which ``raising_factorial`` gives for every
integer n, so one formula covers both signs of k and l.

``solve_intertwiner`` eliminates only the forest rows, those that join two
trees of a union-find over the columns (a one-unknown row joins the zero
tree), and checks each other row once, against the one basis vector on its
tree, dropping that vector if the row fails.  Eliminating every row gives
the same basis: a cycle row reduces to zero or forces its tree to zero.  A
row u x_c + v x_d = 0 is checked on one cross-product of the numerators and
denominators that int, Fraction and RatFunc all have; over Q, ints only.
Exact forest rows reach the eliminator in tree order, each tree breadth
first from its first column: a row comes when the first of its columns is
reached, so its reduction walks a few pivots, not a chain across the tree.
Over Q the order cannot show: each tree gives one line, normalized at its
first nonzero value.  A forest with a RatFunc keeps assembly order: RatFunc
never reduces, so the printed symbolic solutions show the elimination order.
The zero tree is dropped first: all its columns would be pivots, and no
other tree's elimination reads them.

Boundary policy: equations are assembled at every window index and an
equation is skipped only when it touches an unknown outside the window, or
when earlier rows force both its unknowns to zero (no solution changes).
Skipping can only enlarge the solution space, and the expected dimensions
are pinned at fixed window sizes, so spurious enlargement is caught.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonGenericParameters, ObstructionAtIndex
from .module import ACTION_TABLE, OFF_DIAGONAL, TAU, Box, Params
from .scalars import RatFunc, raising_factorial
from .solver import nullspace
from .subquotient import LBarSet, ModuleDescriptor, lbar_coordinates


@dataclass
class HomSolution:
    """Diagonal intertwiner candidate phi(b_i) = x[i] b'_i on a window."""

    source: ModuleDescriptor
    target: ModuleDescriptor
    box: Box
    x: dict

    def value(self, idx):
        return self.x.get(tuple(idx), Fraction(0))

    def normalized(self) -> "HomSolution":
        for idx in sorted(self.x):
            if self.x[idx]:
                pivot = self.x[idx]
                scaled = {i: v / pivot for i, v in self.x.items()}
                return HomSolution(self.source, self.target, self.box, scaled)
        return self


def _check_problem(source: ModuleDescriptor, target: ModuleDescriptor):
    if source.params != target.params:
        raise ValueError("source and target need equal parameters")
    if source.J != target.J:
        raise ValueError("source and target must share one index set")


def _edges():
    """[(o, X, F, Y, B, s), ...]: each w-table entry (o, F) of X with o > 0,
    in OFF_DIAGONAL and table order, beside the entry (-o, B) of Y, where
    TAU[X] = (Y, s).  The table and TAU are read at call time, so a patched
    entry is seen."""
    w = ACTION_TABLE["w"]
    return [(o, x, f, y, dict(w[y])[tuple(-d for d in o)], s)
            for x in OFF_DIAGONAL for o, f in w[x] if o > (0, 0, 0) for y, s in [TAU[x]]]


def intertwiner_equations(source, target, box: Box):
    """The in-window coefficient-matching equations as sparse rows, one per
    edge {a, j = a + o} with a row, read at its lower end a in window and then
    _edges order (module docstring), and none whose ends earlier rows force to
    zero.  With F and B the edge's w-coefficients and tau(X) = s Y, a plain
    -> dual row is {j: F(a), a: s B(j)} and a dual -> plain row
    {j: s B(j), a: F(a)}, each without its zero sides; a same-basis edge
    gives x_j - x_a where F(a) or B(j) is nonzero.  The window, already cut
    to J, alone decides a target."""
    _check_problem(source, target)
    p = source.params
    indices = source.indices(box)
    inside = set(indices)
    same, dual = source.basis == target.basis, source.basis == "eta"
    edges = [(*o, f, b, s) for o, _, f, _, b, s in _edges()]
    rows, trees = [], {}  # trees: column -> its tree, begun at the first one-unknown row
    for a in indices:
        k, l, m = a
        q = p.line(k, l)
        for dk, dl, dm, f, b, s in edges:
            j = (k + dk, l + dl, m + dm)
            zero = trees.get(None)
            if j not in inside or zero and trees.get(a) is zero and trees.get(j) is zero:
                continue  # outside, or earlier rows force both ends to zero: 0 = 0
            u = f(q, m)  # F(a), then B(j): in a same-basis problem only where F(a) = 0
            v = 0 if same and u else b(p.line(k + dk, l + dl), m + dm)
            if same:
                row = {j: Fraction(1), a: Fraction(-1)} if u or v else None
            else:
                v = v if s > 0 else -v  # s B(j)
                row = _row(j, v, a, u) if dual else _row(j, u, a, v)
            if row:
                rows.append(row)
                if trees or len(row) == 1:  # the first forced zero: replay rows
                    for row in rows if not trees else (row,):
                        _join(trees, row)
    return indices, rows


def _join(trees: dict, row: dict) -> bool:
    """Merge, in trees, the column lists of the trees of the row's two
    columns, or of its one and None (the zero tree); whether there were two."""
    ends = iter(row)
    a, b = next(ends), next(ends, None)
    small, big = trees.setdefault(a, [a]), trees.setdefault(b, [b])
    if small is big:
        return False
    if len(small) > len(big):
        small, big = big, small
    big += small
    for c in small:
        trees[c] = big
    return True


def _row(j, u, a, v) -> dict:
    """{j: u, a: v} without its zero sides."""
    row = {j: u} if u else {}
    if v:
        row[a] = v
    return row


def _fails(row: dict, x: dict) -> bool:
    """Whether u x_c + v x_d, a row of one or two unknowns, is nonzero at the
    values x (absent means zero), tested as u x_c != -v x_d cross-multiplied:
    no Fraction or RatFunc is made only to be compared."""
    (c, u), (d, v) = (*row.items(), (None, 0))[:2]
    xc, xd = x.get(c, 0), x.get(d, 0)
    return (u.numerator * v.denominator * (xc.numerator * xd.denominator)
            != -v.numerator * u.denominator * (xd.numerator * xc.denominator))


def _tree_order(forest, columns):
    """The forest rows, each tree breadth first from its first column; the
    zero tree is dropped before, so every row joins two columns."""
    at = {}
    for row in forest:
        for c in row:
            at.setdefault(c, []).append(row)
    order, reached = [], set()
    for queue in ([c] for c in columns if c in at and c not in reached):
        reached.add(queue[0])
        for c in queue:  # grows as it is read: breadth first
            for row in at[c]:
                new = [d for d in row if d not in reached]
                if new:  # a tree edge
                    order.append(row)
                    reached.update(new)
                    queue += new
    return order


def _forest_nullspace(rows, columns):
    """nullspace(rows, columns), for rows of one or two unknowns.  Forest rows
    go in tree order unless one holds a RatFunc, which never reduces: the
    printed values would show the order (module docstring)."""
    trees, forest, cycles = {}, [], []
    for row in rows:
        (forest if _join(trees, row) else cycles).append(row)
    if zero := trees.get(None):  # the zero tree
        forest = [row for row in forest if trees[next(iter(row))] is not zero]
        columns = [c for c in columns if trees.get(c) is not zero]
    if not any(isinstance(v, RatFunc) for row in forest for v in row.values()):
        forest = _tree_order(forest, columns)
    basis = nullspace(forest, columns)
    home = {c: n for n, vec in enumerate(basis) for c in vec}
    broken = {home[c] for row in cycles if (c := next(iter(row))) in home
              and _fails(row, basis[home[c]])}
    return [vec for n, vec in enumerate(basis) if n not in broken]


def solve_intertwiner(source, target, box: Box):
    """Exact basis of diagonal intertwiners on the window, seed-normalized."""
    if box.kmax - box.kmin < 2 or box.mmax < 1:
        raise ValueError("window too small: need at least one step of margin")
    indices, rows = intertwiner_equations(source, target, box)
    if not indices:
        raise ValueError("window does not meet the index set")
    return [HomSolution(source, target, box, vec).normalized()
            for vec in _forest_nullspace(rows, indices)]


def verify_solution(sol: HomSolution):
    """Violated equations for a coefficient family; empty list means exact."""
    indices, rows = intertwiner_equations(sol.source, sol.target, sol.box)
    return [row for row in rows if _fails(row, sol.x)]


def solve_by_recurrence(source, target, seed_idx, seed_value, box: Box):
    """Propagate the one-step ratio recurrences outward from a seed.

    A step in the k, l or m direction crosses an axis edge {lo, hi} of
    _edges.  In a same-basis problem the new value is the known one; between
    the module and its dual one division solves the e1, e2 or e12 row at
    hi, u x_lo = v x_hi, with (u, v) = (B, -s F) from plain to dual and
    (-s F, B) from dual to plain.  A row whose only nonzero coefficient is
    on the already known value aborts with ObstructionAtIndex: no
    invertible intertwiner passes through there.
    """
    _check_problem(source, target)
    seed_idx = tuple(seed_idx)
    if not box.contains(seed_idx):
        raise ValueError(f"seed index {seed_idx} is outside the window {box}")
    if not source.contains(seed_idx):
        _, lbar, _ = lbar_coordinates(seed_idx, source.params)
        raise ValueError(f"seed index {seed_idx} has lbar = {lbar}, "
                         f"outside the source's index set {source.J!r}")
    p = source.params
    same, dual = source.basis == target.basis, source.basis == "eta"
    moves = []  # (step, whether it lowers from a, Y, F, B, s), in search order
    for o, _, f, y, b, s in _edges():
        if sum(map(abs, o)) == 1:  # an axis edge
            moves += [(tuple(-d for d in o), True, y, f, b, s), (o, False, y, f, b, s)]
    x = {seed_idx: seed_value}
    queue = deque([seed_idx])
    inside = set(source.indices(box))
    while queue:
        a = queue.popleft()
        for (dk, dl, dm), lowers, gen, f, b, s in moves:
            nxt = (a[0] + dk, a[1] + dl, a[2] + dm)
            if nxt in x or nxt not in inside:
                continue
            lo, hi = (nxt, a) if lowers else (a, nxt)
            u, v = b(p.line(hi[0], hi[1]), hi[2]), f(p.line(lo[0], lo[1]), lo[2])
            if not (u or v):
                continue  # no information along this edge
            if not same:
                v = -v if s > 0 else v  # the plain -> dual row u x_lo = v x_hi
                if dual == lowers:
                    u, v = v, u  # now u x_nxt = v x_a
                if not u:
                    side = "source" if lowers else "target"
                    raise ObstructionAtIndex(hi, gen, f"{side} coefficient vanishes")
            # an int 0, so that a zero value takes the scalar type of u
            x[nxt] = x[a] if same else (v * x[a] if v else 0) / u
            queue.append(nxt)
    missing = [i for i in inside if i not in x]
    if missing:
        raise ValueError(f"window indices unreachable from seed: {missing[:3]}")
    return HomSolution(source, target, box, x)


def image_kernel(sol: HomSolution):
    """(image, kernel) as lbar-interval sets, or None where levels are mixed.

    Levels touching the window boundary extend to the unbounded side when
    the descriptor's index set is unbounded there.
    """
    p = sol.source.params
    box = sol.box
    nonzero = {}
    for idx in sol.source.indices(box):
        lev = lbar_coordinates(idx, p)[1]
        val = bool(sol.x.get(idx, 0))
        if lev in nonzero and nonzero[lev] != val:
            return None, None
        nonzero[lev] = val
    J = sol.source.J if sol.source.J is not None else LBarSet.all()
    # the lbar levels of the window's lowest and highest corners
    _, lo_window, _ = lbar_coordinates((box.kmin, box.lmin, 0), p)
    _, hi_window, _ = lbar_coordinates((box.kmax, box.lmax, box.mmax), p)
    unbounded_below = any(lo is None for lo, _ in J.intervals)
    unbounded_above = any(hi is None for _, hi in J.intervals)

    def levels_to_set(wanted):
        runs = LBarSet([(lev, lev) for lev, nz in nonzero.items() if nz == wanted])
        return LBarSet([
            (None if lo == lo_window and unbounded_below else lo,
             None if hi == hi_window and unbounded_above else hi)
            for lo, hi in runs.intervals
        ])

    return levels_to_set(True), levels_to_set(False)


# ---------------------------------------------------------------------------
# closed-form coefficient families

def closed_form_xabc(idx, p: Params):
    """Coefficients of the isomorphism from the dual onto the full module
    at parameters with mu1, mu2, mu1+mu2 all non-integral; normalized so the
    value at (0, 0, 0) is 1."""
    if p.mu1_integral() or p.mu2_integral() or p.sum_integral():
        raise NonGenericParameters("family needs mu1, mu2, mu1+mu2 outside Z")
    k, l, m = idx
    q = p.line(k, l)
    mu1 = p.mu1
    mu2 = p.mu2
    return (
        (-1) ** m
        * raising_factorial(q.s, m)
        * mu1
        * mu2
        / (q.kb * q.lb * math.factorial(m))
        * raising_factorial(-mu1 - 1, k) / raising_factorial(-mu1 - mu2 - 1, k)
        * raising_factorial(-mu2 - 1, l) / raising_factorial(q.kb - mu2 - 1, l)
    )


def closed_form_l01_phi(idx, p: Params):
    """Dual -> plain family on the lbar in {0,1} band: supported on lbar = 0,
    seed value 1 at (0, mu2, 0)."""
    k, lb, m = lbar_coordinates(idx, p)
    if lb == 1:
        return Fraction(0)
    if lb != 0:
        raise ValueError(f"index {idx} outside the lbar in {{0,1}} band")
    kb = p.kbar(k)
    return -p.mu1 * (-1) ** m * raising_factorial(kb + 1, m - 1) / math.factorial(m)


def _plain_to_dual(k, lb, m, p: Params):
    """The (k, m) factor that the plain -> dual families share:
    (-1)^m m!/(kb+lb)^(m) * (-kb/mu1) * (lb-mu1-1)^(k)/(-mu1-1)^(k)."""
    kb = p.kbar(k)
    mu1 = p.mu1
    return (
        (-1) ** m
        * math.factorial(m)
        / raising_factorial(kb + lb, m)
        * (-kb / mu1)
        * raising_factorial(lb - mu1 - 1, k) / raising_factorial(-mu1 - 1, k)
    )


def closed_form_l01_psi(idx, p: Params):
    """Plain -> dual family on the lbar in {0,1} band: supported on lbar = 1,
    seed value 1 at (0, mu2+1, 0)."""
    k, lb, m = lbar_coordinates(idx, p)
    if lb == 0:
        return Fraction(0)
    if lb != 1:
        raise ValueError(f"index {idx} outside the lbar in {{0,1}} band")
    return _plain_to_dual(k, lb, m, p)


def closed_form_lge2(idx, p: Params):
    """Plain -> dual family supported on lbar >= 2, seed 1 at (0, mu2+2, 0)."""
    k, lb, m = lbar_coordinates(idx, p)
    if lb < 2:
        return Fraction(0)
    return (_plain_to_dual(k, lb, m, p) * lb * raising_factorial(1 - p.mu1, lb - 2)
            / (2 * math.factorial(lb - 2)))


def closed_form_lle_minus1(idx, p: Params):
    """Self-duality family on lbar <= -1, seed 1 at (0, mu2-1, 0).

    Satisfies the plain -> dual equation system exactly (solver-verified);
    the inverse coefficients give the dual -> plain direction.
    """
    k, lb, m = lbar_coordinates(idx, p)
    if lb > -1:
        raise ValueError(f"index {idx} outside lbar <= -1")
    return (_plain_to_dual(k, lb, m, p) * (-lb) * (math.factorial(1 - lb) // 2)
            / raising_factorial(p.mu1 + 3, -lb - 1))


CLOSED_FORMS = {
    "xabc": closed_form_xabc,
    "l01_phi": closed_form_l01_phi,
    "l01_psi": closed_form_l01_psi,
    "lge2": closed_form_lge2,
    "lle_minus1": closed_form_lle_minus1,
}


def family_solution(name: str, source, target, box: Box) -> HomSolution:
    """Evaluate one named closed-form family over a window."""
    fn = CLOSED_FORMS[name]
    p = source.params
    x = {idx: v for idx in source.indices(box) if (v := fn(idx, p))}
    return HomSolution(source, target, box, x)
