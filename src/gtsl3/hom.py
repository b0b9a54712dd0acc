"""Intertwiner computation between (sub)quotients of the module and its dual.

Each side of a Hom problem is a ``subquotient.ModuleDescriptor``, imported
here as ``hom.ModuleDescriptor``; its ``action`` reads ACTION_TABLE with
the targets outside its index set dropped before they are evaluated.

Both sides of every Hom problem here decompose into one-dimensional
simultaneous eigenspaces with matching eigenvalue triples, so an
intertwiner is diagonal: phi(b_i) = x_i b'_i for one unknown scalar per
index.  Matching coefficients in phi(X b_i) = X phi(b_i) turns each
(generator, index) pair into equations with at most two unknowns; a finite
window makes the system exactly solvable.

Each edge {a, j} of the index graph can give a row at both of its ends:
from X at index a with target j, and from the opposite generator at j with
target a.  The two rows are proportional, so ``intertwiner_equations``
builds the first row on each edge and evaluates nothing more toward it.
Between the module and its dual they are equal or negated: the eta-action
is (X eta)(v) = -eta(tau(X) v), and tau(X) is the opposite generator
(negated for e12 and f12), so the row built is the lower end's (j > a).
In a same-basis problem (plain->plain or dual->dual) source and target are
one module and every row is c*(x_j - x_a); an edge has a row at one end
only where the other end's coefficient vanishes.  A step of
``solve_by_recurrence`` evaluates the upper end toward the lower end and,
only where that row is absent, the lower end toward the upper end.

The closed-form families are products of Pochhammer symbols
x^(n) = Gamma(x+n)/Gamma(x), which ``raising_factorial`` gives for every
integer n, so one formula covers both signs of k and l.

``solve_intertwiner`` eliminates only the forest rows, those that join two
trees of a union-find over the columns (a one-unknown row joins a zero
node), and checks each other row once, against the one basis vector on its
tree, dropping that vector if the row fails.  Eliminating every row gives
the same basis: a cycle row reduces to zero or forces its tree to zero.

Boundary policy: equations are assembled at every window index and an
equation is skipped only when it touches an unknown outside the window.
Skipping can only enlarge the solution space, and the expected dimensions
are pinned at fixed window sizes, so spurious enlargement is caught.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import ObstructionAtIndex
from .module import AXIS_PAIRS, OFF_DIAGONAL, Box, Params
from .scalars import raising_factorial
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


def _comparison_rows(source, target, gen: str, a, want) -> dict:
    """{j: row} from matching the coefficient of b'_j in phi(X b_a) =
    X phi(b_a) for X = gen, for each target j that want(j) accepts: the row
    reads cs*x_j - ct*x_a, with cs the coefficient of b_j in X b_a and ct
    that of b'_j in X b'_a.  No row vanishes: the actions drop zero
    coefficients and j != a.  Callers want only window indices, so no row
    needs an unknown outside the window."""
    src = source.action(gen, a, want)
    tgt = target.action(gen, a, want)
    rows = {}
    for j in set(src) | set(tgt):
        row = {}
        cs = src.get(j)
        ct = tgt.get(j)
        if cs is not None:
            row[j] = cs
        if ct is not None:
            row[a] = -ct
        rows[j] = row
    return rows


_ASSEMBLED = tuple(gen for gen in OFF_DIAGONAL if gen != "e12")


def intertwiner_equations(source, target, box: Box):
    """The in-window coefficient-matching equations as sparse rows: the
    first row on each edge {a, j}, in assembly order, with no coefficient
    evaluated toward an edge that has one.  e12 is not called: its target
    is the lower end of an m-edge, which comes first and has an f12 row
    (f12 keeps lbar; kb+lb+m and -(m+1) do not vanish at a generic sum)."""
    _check_problem(source, target)
    indices = source.indices(box)
    inside = set(indices)
    edges = {}
    for a in indices:
        def new_edge(j):
            return j in inside and (min(a, j), max(a, j)) not in edges

        for gen in _ASSEMBLED:
            for j, row in _comparison_rows(source, target, gen, a, new_edge).items():
                edges[min(a, j), max(a, j)] = row
    return indices, list(edges.values())


def _residual(row: dict, x: dict):
    """The row's left-hand side at the values x (absent means zero)."""
    return sum((coeff * x.get(idx, 0) for idx, coeff in row.items()), 0)


def _forest_nullspace(rows, columns):
    """nullspace(rows, columns), for rows of one or two unknowns (module docstring)."""
    parent = {}

    def root(c):
        while c in parent:  # path halving
            parent[c] = c = parent.get(parent[c], parent[c])
        return c

    forest, cycles = [], []
    for row in rows:
        a, b = (root(c) for c in (*row, None)[:2])
        if a != b:
            parent[a] = b
        (forest if a != b else cycles).append(row)
    basis = nullspace(forest, columns)
    home = {c: n for n, vec in enumerate(basis) for c in vec}
    broken = {home[c] for row in cycles if (c := next(iter(row))) in home
              and _residual(row, basis[home[c]])}
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
    return [row for row in rows if _residual(row, sol.x)]


def solve_by_recurrence(source, target, seed_idx, seed_value, box: Box):
    """Propagate the one-step ratio recurrences outward from a seed.

    A step in the k, l or m direction solves the equation of its edge for
    the new unknown: the e1, e2 or e12 comparison row at the higher of its
    two indices or, where that row is absent, the f1, f2 or f12 row at the
    lower one.  A row whose only nonzero coefficient is on the already known
    value aborts with ObstructionAtIndex: no invertible intertwiner passes
    through there.
    """
    _check_problem(source, target)
    seed_idx = tuple(seed_idx)
    if not box.contains(seed_idx):
        raise ValueError(f"seed index {seed_idx} is outside the window {box}")
    if not source.contains(seed_idx):
        _, lbar, _ = lbar_coordinates(seed_idx, source.params)
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
                    row = _comparison_rows(source, target, gen, at, to.__eq__).get(to)
                    if row is not None:
                        break
                else:
                    continue  # no information along this edge
                if nxt not in row:
                    side = "source" if nxt == to else "target"
                    raise ObstructionAtIndex(at, gen, f"{side} coefficient vanishes")
                # an int 0, so that a zero value takes the scalar type of row[nxt]
                x[nxt] = (-row[a] * x[a] if a in row else 0) / row[nxt]
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
    from .errors import NonGenericParameters

    if p.mu1_integral() or p.mu2_integral() or p.sum_integral():
        raise NonGenericParameters("family needs mu1, mu2, mu1+mu2 outside Z")
    k, l, m = idx
    kb = p.kbar(k)
    lb = p.lbar(l)
    mu1 = p.mu1
    mu2 = p.mu2
    return (
        (-1) ** m
        * raising_factorial(kb + lb, m)
        * mu1
        * mu2
        / (kb * lb * math.factorial(m))
        * raising_factorial(-mu1 - 1, k) / raising_factorial(-mu1 - mu2 - 1, k)
        * raising_factorial(-mu2 - 1, l) / raising_factorial(kb - mu2 - 1, l)
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
