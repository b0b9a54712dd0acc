import functools
import json
import random
import signal
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest

from gtsl3 import hom, liealg
from gtsl3.errors import ObstructionAtIndex
from gtsl3.hom import (
    HomSolution,
    ModuleDescriptor,
    closed_form_l01_phi,
    closed_form_l01_psi,
    closed_form_lge2,
    closed_form_lle_minus1,
    closed_form_xabc,
    family_solution,
    image_kernel,
    intertwiner_equations,
    solve_by_recurrence,
    solve_intertwiner,
    verify_solution,
)
from gtsl3.module import ACTION_TABLE, OFF_DIAGONAL, TAU, Box, Params
from gtsl3.registry import HOM_STATEMENTS
from gtsl3.scalars import MU1, RatFunc
from gtsl3.serialize import parse_set_expr
from gtsl3.solver import nullspace
from gtsl3.subquotient import LBarSet
from nullspace_oracle import nullspace_oracle
from test_wanted_targets import ROW_PROBLEMS
from unfiltered_oracle import ForcedZeros, entry_offsets
from unfiltered_oracle import intertwiner_equations as unfiltered_equations

P0 = Params(Fraction(1, 3), Fraction(0))
PG = Params(Fraction(1, 3), Fraction(1, 5))


class TestNullspace:
    def test_unique_up_to_scale(self):
        rows = [{"x": Fraction(2), "y": Fraction(-1)}]
        basis = nullspace(rows, ["x", "y"])
        assert len(basis) == 1
        v = basis[0]
        assert v["x"] * Fraction(2) == v["y"]

    def test_forced_zero(self):
        rows = [{"x": Fraction(1)}, {"y": Fraction(1), "z": Fraction(-1)}]
        basis = nullspace(rows, ["x", "y", "z"])
        assert len(basis) == 1
        assert "x" not in basis[0]

    def test_full_rank_gives_empty_basis(self):
        rows = [
            {"x": Fraction(1), "y": Fraction(1)},
            {"x": Fraction(1), "y": Fraction(-1)},
        ]
        assert nullspace(rows, ["x", "y"]) == []

    def test_no_rows_gives_full_space(self):
        assert len(nullspace([], ["a", "b", "c"])) == 3


HOM_CASES = [
    # (J, source dual, target dual, image, kernel)
    (LBarSet.between(0, 1), True, False, LBarSet.eq(0), LBarSet.eq(1)),
    (LBarSet.between(0, 1), False, True, LBarSet.eq(1), LBarSet.eq(0)),
    (LBarSet.ge(1), True, False, LBarSet.eq(1), LBarSet.ge(2)),
    (LBarSet.ge(1), False, True, LBarSet.ge(2), LBarSet.eq(1)),
    (LBarSet.ge(0), True, False, LBarSet.eq(0), LBarSet.ge(1)),
    (LBarSet.ge(0), False, True, LBarSet.ge(2), LBarSet.between(0, 1)),
]


@pytest.mark.parametrize("J,sdual,tdual,img,ker", HOM_CASES)
def test_hom_spaces_are_lines_with_the_stated_image_and_kernel(
    J, sdual, tdual, img, ker
):
    src = ModuleDescriptor(P0, dual=sdual, J=J)
    tgt = ModuleDescriptor(P0, dual=tdual, J=J)
    sols = solve_intertwiner(src, tgt, src.window(4))
    assert len(sols) == 1
    got_img, got_ker = image_kernel(sols[0])
    assert got_img == img
    assert got_ker == ker


def test_identity_problem_has_constant_solution():
    tgt = ModuleDescriptor(PG, dual=False)
    sols = solve_intertwiner(tgt, tgt, Box.radius(3))
    assert len(sols) == 1
    assert set(sols[0].x.values()) == {Fraction(1)}


def test_full_self_duality_dimension_one_at_generic_parameters():
    src = ModuleDescriptor(PG, dual=True)
    tgt = ModuleDescriptor(PG, dual=False)
    sols = solve_intertwiner(src, tgt, Box.radius(4))
    assert len(sols) == 1


def test_phi_family_frozen_values_and_seed():
    assert closed_form_l01_phi((0, 0, 0), P0) == 1
    assert closed_form_l01_phi((1, 0, 0), P0) == Fraction(-1, 2)
    assert closed_form_l01_phi((0, 0, 1), P0) == Fraction(1, 3)
    assert closed_form_l01_phi((3, 1, 2), P0) == 0


def test_psi_family_frozen_values_and_seed():
    assert closed_form_l01_psi((0, 1, 0), P0) == 1
    assert closed_form_l01_psi((0, 0, 2), P0) == 0


def test_xabc_frozen_values():
    assert closed_form_xabc((0, 0, 0), PG) == 1
    assert closed_form_xabc((0, 0, 1), PG) == Fraction(8, 15)
    # one step in k equals the displayed ratio applied to the seed
    kb = PG.kbar(1)
    lb = PG.lbar(0)
    ratio = ((kb - 1) * (kb - 2) * (kb + lb - 1)) / (kb * (kb + lb - 1) * (kb + lb - 2))
    assert closed_form_xabc((1, 0, 0), PG) == ratio


def test_families_satisfy_their_equations_specialized():
    cases = [
        ("l01_phi", LBarSet.between(0, 1), True, False),
        ("l01_psi", LBarSet.between(0, 1), False, True),
        ("lge2", LBarSet.ge(0), False, True),
        ("lle_minus1", LBarSet.le(-1), False, True),
    ]
    for name, J, sdual, tdual in cases:
        src = ModuleDescriptor(P0, dual=sdual, J=J)
        tgt = ModuleDescriptor(P0, dual=tdual, J=J)
        fam = family_solution(name, src, tgt, src.window(3))
        assert verify_solution(fam) == [], name


def test_xabc_satisfies_equations_and_matches_recurrence():
    src = ModuleDescriptor(PG, dual=True)
    tgt = ModuleDescriptor(PG, dual=False)
    box = Box.radius(3)
    fam = family_solution("xabc", src, tgt, box)
    assert verify_solution(fam) == []
    rec = solve_by_recurrence(src, tgt, (0, 0, 0), Fraction(1), box)
    assert all(rec.value(i) == fam.value(i) for i in src.indices(box))


def test_solver_solution_is_proportional_to_the_family():
    J = LBarSet.between(0, 1)
    src = ModuleDescriptor(P0, dual=True, J=J)
    tgt = ModuleDescriptor(P0, dual=False, J=J)
    box = src.window(4)
    sol = solve_intertwiner(src, tgt, box)[0]
    fam = family_solution("l01_phi", src, tgt, box)
    scale = sol.value((0, 0, 0))
    assert all(sol.value(i) == scale * fam.value(i) for i in src.indices(box))


def test_recurrence_seed_scaling_is_linear():
    src = ModuleDescriptor(PG, dual=True)
    tgt = ModuleDescriptor(PG, dual=False)
    box = Box.radius(2)
    one = solve_by_recurrence(src, tgt, (0, 0, 0), Fraction(1), box)
    two = solve_by_recurrence(src, tgt, (0, 0, 0), Fraction(2), box)
    assert all(two.value(i) == 2 * one.value(i) for i in src.indices(box))


def test_obstruction_for_integral_mu2_on_the_e2_comparison():
    src = ModuleDescriptor(P0, dual=False)
    tgt = ModuleDescriptor(P0, dual=True)
    with pytest.raises(ObstructionAtIndex) as exc:
        solve_by_recurrence(src, tgt, (0, 0, 0), Fraction(1), Box.radius(3))
    assert exc.value.generator == "e2"
    assert exc.value.index[1] - P0.mu2_int() == 0  # the lbar = 0 wall


def test_obstruction_for_integral_mu1_on_the_e1_comparison():
    p = Params(Fraction(0), Fraction(1, 5))
    src = ModuleDescriptor(p, dual=False)
    tgt = ModuleDescriptor(p, dual=True)
    with pytest.raises(ObstructionAtIndex) as exc:
        solve_by_recurrence(src, tgt, (0, 0, 0), Fraction(1), Box.radius(3))
    assert exc.value.generator == "e1"
    assert exc.value.index[0] == 0  # kbar = k - 0 vanishes there


def test_no_obstruction_at_generic_parameters():
    src = ModuleDescriptor(PG, dual=False)
    tgt = ModuleDescriptor(PG, dual=True)
    sol = solve_by_recurrence(src, tgt, (0, 0, 0), Fraction(1), Box.radius(2))
    assert all(v != 0 for v in sol.x.values())


def test_lle_family_direction_is_plain_to_dual():
    J = LBarSet.le(-1)
    plain = ModuleDescriptor(P0, dual=False, J=J)
    dualm = ModuleDescriptor(P0, dual=True, J=J)
    box = plain.window(3)
    fam = family_solution("lle_minus1", plain, dualm, box)
    assert verify_solution(fam) == []
    # inverse coefficients solve the opposite direction
    inv = family_solution("lle_minus1", dualm, plain, box)
    inv.x = {i: 1 / v for i, v in fam.x.items()}
    assert verify_solution(inv) == []


def test_lle_seed_and_sample_value():
    assert closed_form_lle_minus1((0, -1, 0), P0) == 1
    assert closed_form_lge2((0, 2, 0), P0) == 1
    assert closed_form_lge2((0, 0, 0), P0) == 0  # below the support


def test_descriptor_validation():
    with pytest.raises(ValueError):
        solve_intertwiner(
            ModuleDescriptor(P0, dual=True, J=LBarSet.ge(0)),
            ModuleDescriptor(P0, dual=False, J=LBarSet.ge(1)),
            Box.radius(2),
        )
    bad = Params(Fraction(1, 3), Fraction(2, 3))
    from gtsl3.errors import NonGenericParameters

    with pytest.raises(NonGenericParameters):
        solve_intertwiner(
            ModuleDescriptor(bad, dual=True), ModuleDescriptor(bad, dual=False),
            Box.radius(2),
        )


# ---------------------------------------------------------------------------
# the shared comparison rows against the equation assembly and the
# two-branch recurrence they replaced, kept here as oracles

def _table_targets(source, target, gen, a):
    """The targets of gen at a that either side's action lists, in entry
    order: the order in which the rows of one index and generator come."""
    offsets = dict.fromkeys(offset for basis in (source.basis, target.basis)
                            for offset in entry_offsets(basis, gen))
    return [tuple(i + d for i, d in zip(a, offset)) for offset in offsets]


def _equations_oracle(source, target, box):
    """(indices, [((a, j), row), ...]): the row matching the coefficient of
    b'_j in phi(X b_a) = X phi(b_a), from both ends of every edge, and no
    row at all on an edge whose two ends the rows kept before its first row
    already force to zero."""
    indices = source.indices(box)
    inside = set(indices)
    edges, dropped, seen, zeros = [], set(), set(), ForcedZeros()
    for a in indices:
        for gen in OFF_DIAGONAL:
            src = source.action(gen, a)
            tgt = target.action(gen, a)
            for j in _table_targets(source, target, gen, a):
                if j not in inside or (j not in src and j not in tgt):
                    continue
                row = {}
                if j in src:
                    row[j] = src[j]
                if j in tgt:
                    row[a] = row.get(a, 0) - tgt[j]
                row = {c: v for c, v in row.items() if v != 0}
                edge = frozenset((a, j))
                if row and edge not in seen:
                    seen.add(edge)
                    if zeros.both(a, j):
                        dropped.add(edge)
                if row and edge not in dropped:
                    edges.append(((a, j), row))
                    zeros.keep(row)
    return indices, edges


def _recurrence_oracle(source, target, seed_idx, seed_value, box):
    x = {seed_idx: seed_value}
    queue = deque([seed_idx])
    inside = set(source.indices(box))
    while queue:
        a = queue.popleft()
        for axis, gen in enumerate(("e1", "e2", "e12")):
            for direction in (-1, +1):
                step = [0, 0, 0]
                step[axis] = direction
                nxt = (a[0] + step[0], a[1] + step[1], a[2] + step[2])
                if nxt in x or nxt not in inside:
                    continue
                hi, lo = (a, nxt) if direction < 0 else (nxt, a)
                cs = source.action(gen, hi).get(lo)
                ct = target.action(gen, hi).get(lo)
                if cs is None and ct is None:
                    continue
                if direction < 0:
                    if cs is None:
                        raise ObstructionAtIndex(hi, gen, "source coefficient vanishes")
                    x[nxt] = (0 if ct is None else ct * x[a]) / cs
                else:
                    if ct is None:
                        raise ObstructionAtIndex(hi, gen, "target coefficient vanishes")
                    x[nxt] = (0 if cs is None else cs * x[a]) / ct
                queue.append(nxt)
    missing = [i for i in inside if i not in x]
    if missing:
        raise ValueError(f"window indices unreachable from seed: {missing[:3]}")
    return HomSolution(source, target, box, x)


def _outcome(solve, *args):
    try:
        sol = solve(*args)
    except ObstructionAtIndex as e:
        return ("obstruction", e.index, e.generator, e.detail)
    except ValueError as e:
        return ("unreachable", str(e))
    return sorted(sol.x.items())


MODULE_DUAL = ((False, True), (True, False))
SAME_BASIS = ((False, False), (True, True))
ORACLE_POINTS = {
    "generic": (PG, ["full"], MODULE_DUAL),
    "mu1=0": (Params(0, Fraction(1, 5)), ["full"], MODULE_DUAL),
    **{f"mu2={t}": (Params(Fraction(1, 3), t),
                    ["full", "l01", "lbar>=0", "lbar>=1", "lbar>=2", "lbar<=-1"],
                    MODULE_DUAL)
       for t in (0, 3, -1)},
    "same-basis mu2=0": (P0, ["full", "l01", "lbar>=2"], SAME_BASIS),
}


@pytest.mark.parametrize("params,sets,pairings", ORACLE_POINTS.values(),
                         ids=list(ORACLE_POINTS))
def test_comparison_rows_match_the_assembly_and_recurrence_oracles(params, sets, pairings):
    """A module-dual problem assembles the row at the lower end of each edge
    (j > a), {j: cs, a: -ct} from plain to dual and {j: -cs, a: ct} from
    dual to plain, and leaves out the upper-end row, which is that row or
    its negative.  In a same-basis problem every row on an edge is a multiple
    of the first, and that of x_j - x_a: the problem assembles {j: 1, a: -1}
    at the lower end of each edge with a row, in window order and then in
    the order of the entries that raise an index."""
    rnd = random.Random(41)
    for text in sets:
        J = parse_set_expr(text)
        for sdual, tdual in pairings:
            src = ModuleDescriptor(params, dual=sdual, J=J)
            tgt = ModuleDescriptor(params, dual=tdual, J=J)
            for r in (2, 3, 4):
                box = src.window(r)
                if r == 3:  # the rows do not depend on r, only on the window edge
                    indices, edges = _equations_oracle(src, tgt, box)
                    if sdual == tdual:
                        kept = {}
                        for (a, j), row in edges:
                            lo, hi = min(a, j), max(a, j)
                            first = kept.setdefault((lo, hi), row)
                            q = row[a] / first[a]
                            assert q != 0 and row == {
                                c: q * v for c, v in first.items()}, (text, sdual, a, j)
                            assert first[hi] == -first[lo], (text, sdual, a, j)
                        rank = {a: n for n, a in enumerate(indices)}
                        up = [o for gen in OFF_DIAGONAL for o, _ in ACTION_TABLE["w"][gen]
                              if o > (0, 0, 0)]
                        want = [{hi: Fraction(1), lo: Fraction(-1)} for lo, hi in sorted(
                            kept, key=lambda e: (rank[e[0]], up.index(
                                tuple(j - i for i, j in zip(*e)))))]
                    else:
                        kept = {e: row for e, row in edges if e[1] > e[0]}
                        for (a, j), row in edges:
                            if j < a:
                                twin = kept[j, a]
                                assert row == twin or row == {
                                    c: -v for c, v in twin.items()}, (text, sdual, a, j)
                        want = [{c: -v for c, v in row.items()} if sdual else row
                                for row in kept.values()]
                    assert intertwiner_equations(src, tgt, box) == (indices, want)
                indices = src.indices(box)
                for seed in [(0, box.lmin + r, 0)] + rnd.sample(indices, 2):
                    if seed not in indices:
                        continue
                    old = _outcome(_recurrence_oracle, src, tgt, seed, Fraction(1), box)
                    if old[0] == "unreachable":
                        # the oracle reads only the upper end of an edge
                        sol = solve_by_recurrence(src, tgt, seed, Fraction(1), box)
                        assert verify_solution(sol) == [], (text, sdual, r, seed)
                        assert set(sol.x.values()) == {1}, (text, sdual, r, seed)
                        continue
                    new = _outcome(solve_by_recurrence, src, tgt, seed, Fraction(1), box)
                    assert new == old, (text, sdual, r, seed)


# ---------------------------------------------------------------------------
# the solver on its half-size system against the general eliminator on
# the rows from both ends of every edge, and against golden printed
# solutions, on every registered Hom problem

def _printed(sols):
    return [sorted((idx, type(v).__name__, str(v)) for idx, v in s.x.items())
            for s in sols]


SYM0 = Params(MU1, RatFunc(0))
REGISTERED_HOM = {
    **{f"statements mu2={t}": [(Params(Fraction(1, 3), t), J, sdual, tdual, r)
                               for _, J, sdual, tdual, _, _ in HOM_STATEMENTS
                               for r in (2, 3, 4)]
       for t in (0, 2)},
    "full self-duality": [(p, None, True, False, r)
                          for p in (PG, Params(0, Fraction(1, 5))) for r in (2, 3, 4)],
    # the symbolic Hom cases that symbolic-sweep decides
    "symbolic r=1": [(SYM0, parse_set_expr(text), sdual, tdual, 1)
                     for text in ("l01", "lbar=0")
                     for sdual, tdual in ((True, False), (False, True))],
    "same-basis full": [(PG, None, sdual, sdual, r)
                        for sdual in (False, True) for r in (2, 3)],
    # plain -> dual problems with two free columns: pins which columns the
    # solver leaves free and how it normalizes each basis vector
    "dimension 2": [(Params(*mu), None, False, True, 2)
                    for mu in ((Fraction(1, 3), 0), (Fraction(1, 3), 2),
                               (0, Fraction(1, 5)))]
                   + [(Params(Fraction(1, 3), t), parse_set_expr("lbar in -1..2"),
                       False, True, 2) for t in (0, 2)],
}
GOLDEN_HOM = Path(__file__).parent / "golden" / "hom_solutions.json"


def _problem(params, J, sdual, tdual, r):
    src = ModuleDescriptor(params, dual=sdual, J=J)
    tgt = ModuleDescriptor(params, dual=tdual, J=J)
    return src, tgt, src.window(r)


@functools.cache
def _solved(group):
    return [_printed(solve_intertwiner(*_problem(*case))) for case in REGISTERED_HOM[group]]


def _golden_entries(group):
    """JSON-ready {problem, solutions} records of one group, in order."""
    side = {False: "plain", True: "dual"}
    out = []
    for (params, J, sdual, tdual, r), printed in zip(REGISTERED_HOM[group], _solved(group)):
        name = (f"{side[sdual]} -> {side[tdual]}, "
                f"J = {'all' if J is None else J.intervals}, "
                f"mu = ({params.mu1}, {params.mu2}), r = {r}")
        out.append({"problem": name, "solutions": printed})
    return json.loads(json.dumps(out))


@pytest.mark.parametrize("group", list(REGISTERED_HOM))
def test_solve_intertwiner_prints_the_oracle_solutions(group):
    for case, got in zip(REGISTERED_HOM[group], _solved(group)):
        src, tgt, box = _problem(*case)
        indices, edges = _equations_oracle(src, tgt, box)
        basis = nullspace_oracle([row for _, row in edges], indices)
        want = _printed([HomSolution(src, tgt, box, vec).normalized() for vec in basis])
        assert got == want, case


@pytest.mark.parametrize("group", list(REGISTERED_HOM))
def test_solve_intertwiner_prints_the_golden_solutions(group):
    assert _golden_entries(group) == json.loads(GOLDEN_HOM.read_text())[group]


def _spy_on_nullspace(monkeypatch):
    """[(rows, basis)] of each nullspace call that solve_intertwiner makes."""
    calls = []

    def spy(rows, columns):
        calls.append((rows, nullspace(rows, columns)))
        return calls[-1][1]

    monkeypatch.setattr(hom, "nullspace", spy)
    return calls


def test_solve_intertwiner_eliminates_only_the_forest_rows(monkeypatch):
    calls = _spy_on_nullspace(monkeypatch)
    src, tgt = ModuleDescriptor(PG, dual=True), ModuleDescriptor(PG)
    box = Box.radius(3)
    indices, rows = intertwiner_equations(src, tgt, box)
    assert len(solve_intertwiner(src, tgt, box)) == 1
    [(forest, _)] = calls
    # one spanning tree of the 196 unknowns, its rows in tree order
    assert (len(indices), len(rows), len(forest)) == (196, 735, 195)
    edges = {frozenset(row) for row in forest}
    assert (sorted(sorted(row.items()) for row in rows if frozenset(row) in edges)
            == sorted(sorted(row.items()) for row in forest))
    # breadth first from the first column: each row meets exactly one column
    # reached before it, reached no earlier than the last row's such column
    reached, last = {indices[0]: 0}, 0
    for row in forest:
        [n] = [reached[c] for c in row if c in reached]
        assert n >= last
        last = n
        reached.update((c, len(reached)) for c in row if c not in reached)


def test_a_symbolic_forest_reaches_nullspace_in_assembly_order(monkeypatch):
    """RatFunc never reduces, so the order of elimination shows in the
    printed symbolic solutions: their forest rows keep assembly order, even
    beside the Fraction f12 coefficients that the rows read off the
    w-table."""
    calls = _spy_on_nullspace(monkeypatch)
    src, tgt, box = _problem(SYM0, parse_set_expr("lbar=0"), True, False, 1)
    indices, rows = intertwiner_equations(src, tgt, box)
    assert len(solve_intertwiner(src, tgt, box)) == 1
    [(forest, _)] = calls
    kinds = {type(v) for row in forest for v in row.values()}
    assert (len(indices), len(rows), len(forest), kinds) == (6, 9, 5, {RatFunc, Fraction})
    edges = {frozenset(row) for row in forest}
    assert [row for row in rows if frozenset(row) in edges] == forest
    assert hom._tree_order(forest, indices) != forest


def test_a_broken_cycle_drops_its_tree_as_elimination_of_every_row_does(monkeypatch):
    """The w-basis f1 coefficients doubled at lbar = 2, m = 1, inside the
    second of the two trees of a dimension-2 problem: the forest solve
    still finds both trees, and the check of the cycle rows drops the
    broken one, as eliminating every row does."""
    (off, coeff), side = ACTION_TABLE["w"]["f1"]

    def doubled(q, m):
        return 2 * coeff(q, m) if (q.lb, m) == (2, 1) else coeff(q, m)

    monkeypatch.setitem(ACTION_TABLE["w"], "f1", ((off, doubled), side))
    calls = _spy_on_nullspace(monkeypatch)
    src, tgt, box = _problem(P0, None, False, True, 2)
    got = _printed(solve_intertwiner(src, tgt, box))
    [(_, forest_basis)] = calls
    indices, rows = intertwiner_equations(src, tgt, box)
    want = _printed([HomSolution(src, tgt, box, vec).normalized()
                     for vec in nullspace_oracle(rows, indices)])
    assert (len(forest_basis), len(got)) == (2, 1) and got == want


# ---------------------------------------------------------------------------
# an edge whose two ends earlier rows force to zero is not assembled: the
# basis and the verdicts are those of every row

def _equivalence_problems():
    """(params, J text, source dual, target dual, r) of the ROW_PROBLEMS and
    ORACLE_POINTS problems whose window meets J, exact and over Q(mu1).  Over
    Q(mu1) only the problems at r = 1: the module-dual ones at r = 2 take
    seconds or more to eliminate."""
    problems = {(str(params.mu1), str(params.mu2), text, sdual, tdual, r): params
                for group, cases in ROW_PROBLEMS.items() if group != "Q(mu1, mu2)"
                for params, text, sdual, tdual, r in cases
                if not isinstance(params.mu1, RatFunc) or r == 1}
    problems.update({(str(params.mu1), str(params.mu2), text, sdual, tdual, 3): params
                     for params, sets, pairings in ORACLE_POINTS.values()
                     for text in sets for sdual, tdual in pairings})
    return [(params, text, sdual, tdual, r)
            for (_, _, text, sdual, tdual, r), params in problems.items()
            if ModuleDescriptor(params, J=parse_set_expr(text)).indices(
                ModuleDescriptor(params).window(r))]


def test_skipped_rows_change_no_basis_and_no_verdict():
    """The basis is the oracle eliminator's on every row, normalized the same
    way; and a solution moved at one index inside a zero tree, and at one
    outside, fails verify_solution exactly where it fails one of every row."""
    rnd = random.Random(7)
    seen = set()
    for params, text, sdual, tdual, r in _equivalence_problems():
        src, tgt, box = _problem(params, parse_set_expr(text), sdual, tdual, r)
        indices, rows = unfiltered_equations(src, tgt, box, drop_forced_zeros=False)
        got = solve_intertwiner(src, tgt, box)
        want = [HomSolution(src, tgt, box, vec).normalized()
                for vec in nullspace_oracle(rows, indices)]
        case = (str(params.mu1), str(params.mu2), text, sdual, tdual, r)
        assert _printed(got) == _printed(want), case
        zeros = ForcedZeros()
        for row in rows:
            zeros.keep(row)
        x = got[0].x if got else {}
        candidates = {"solution": x}
        for region, inside in (("zero tree", True), ("outside", False)):
            region_indices = [i for i in indices if (i in zeros.zero) == inside]
            if region_indices:
                idx = rnd.choice(region_indices)
                candidates[region] = {**x, idx: x.get(idx, 0) + 1}
        for name, values in candidates.items():
            broken = any(_residual(row, values) for row in rows)
            assert bool(verify_solution(HomSolution(src, tgt, box, values))) == broken, (
                case, name)
            seen.add((name, broken))
    assert seen == {("solution", False), ("zero tree", True), ("outside", True)}


def test_a_dual_to_plain_row_is_the_plain_to_dual_row_with_its_values_exchanged():
    """Generic full at r = 3 skips no row and has no one-unknown row: the
    dual -> plain rows are the plain -> dual rows, in the same order and
    with the same keys, each with its two values exchanged."""
    box = Box.radius(3)
    plain, dual = ModuleDescriptor(PG), ModuleDescriptor(PG, dual=True)
    indices, to_dual = intertwiner_equations(plain, dual, box)
    assert (indices, to_dual) == unfiltered_equations(plain, dual, box, drop_forced_zeros=False)
    _, to_plain = intertwiner_equations(dual, plain, box)
    assert len(to_plain) == len(to_dual) > 700
    for forward, back in zip(to_dual, to_plain):
        assert len(forward) == 2 and list(back) == list(forward)
        assert list(back.values()) == list(forward.values())[::-1]


def test_forced_zero_edges_are_not_assembled():
    """dual -> plain on lbar >= 0 at mu2 = 0 is forced to zero on lbar >= 1,
    so it assembles fewer rows than there are edges with a row; the generic
    full self-duality has no forced zero and assembles every row."""
    J = LBarSet.ge(0)
    src, tgt = ModuleDescriptor(P0, dual=True, J=J), ModuleDescriptor(P0, J=J)
    box = src.window(3)
    _, rows = intertwiner_equations(src, tgt, box)
    _, every = unfiltered_equations(src, tgt, box, drop_forced_zeros=False)
    assert len(rows) < len(every)
    src, tgt = ModuleDescriptor(PG, dual=True), ModuleDescriptor(PG)
    box = src.window(3)
    assert (intertwiner_equations(src, tgt, box)
            == unfiltered_equations(src, tgt, box, drop_forced_zeros=False))


# ---------------------------------------------------------------------------
# a same-basis row is x_j - x_a, so symbolic same-basis problems eliminate
# +-1 Fractions and decide at once

def _trees(desc, box):
    """The index sets of the components of the window's index graph, an edge
    joining a and j where a generator's coefficient from a to j is nonzero."""
    indices = desc.indices(box)
    tree = {a: frozenset([a]) for a in indices}
    for a in indices:
        for gen in OFF_DIAGONAL:
            for j in desc.action(gen, a):
                if j in tree and tree[j] is not tree[a]:
                    joined = tree[a] | tree[j]
                    tree.update(dict.fromkeys(joined, joined))
    return set(tree.values())


SYMBOLIC_SAME_BASIS = [(SYM0, text, dual, r) for text in ("l01", "lbar>=0")
                       for dual in (False, True) for r in (1, 2)] + [
    (Params.symbolic(), "full", dual, 1) for dual in (False, True)]


@pytest.mark.parametrize("params,text,dual,r", SYMBOLIC_SAME_BASIS, ids=[
    f"{'dual' if dual else 'plain'}:{text}, r={r}, mu2={params.mu2}"
    for params, text, dual, r in SYMBOLIC_SAME_BASIS])
def test_symbolic_same_basis_problems_decide_in_seconds(params, text, dual, r):
    """One basis vector per tree, 1 on the tree and absent elsewhere, under
    a 5 s alarm: a row c (x_j - x_a) with c in Q(mu) would swell the
    eliminator's RatFuncs far past it."""
    src, tgt, box = _problem(params, parse_set_expr(text), dual, dual, r)

    def timed_out(signum, frame):
        raise TimeoutError(f"{text}, dual={dual}, r={r} took more than 5 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(5)
    try:
        sols = solve_intertwiner(src, tgt, box)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert {frozenset(s.x) for s in sols} == _trees(src, box)
    assert len(sols) == len(_trees(src, box))
    assert {v for s in sols for v in s.x.values()} == {1}


# ---------------------------------------------------------------------------
# what the row assembly and the row check take for granted

def test_the_w_and_eta_tables_list_the_same_offsets_in_the_same_order():
    """The Hom rows pair the source's and the target's entries of one
    generator by position, so the w- and eta-actions must agree entry by
    entry: X's w-offsets are, in order, those of its tau partner Y negated,
    which the eta action lists for X."""
    assert set(ACTION_TABLE["w"]) == set(TAU) == set(liealg.GENERATORS)
    for gen in liealg.GENERATORS:
        assert entry_offsets("w", gen) == entry_offsets("eta", gen), gen


def test_each_offset_is_one_entry_and_its_opposite_is_another():
    """_edges keys the w-table's entries by offset and pairs each o > 0 with
    -o and tau's sign: five edges per index, the axis steps (1, 0, 0),
    (0, 1, 0) and (0, 0, 1) among them, and s = -1 only on f12/e12."""
    for basis in ("w", "eta"):  # the bases of a Hom problem
        offsets = [o for gen in OFF_DIAGONAL for o in entry_offsets(basis, gen)]
        assert len(offsets) == len(set(offsets)) == 10, basis
        assert {tuple(-d for d in o) for o in offsets} == set(offsets), basis
    edges = hom._edges()
    assert [(x, y, s) for _, x, _, y, _, s in edges] == [
        ("e1", "f1", 1), ("e2", "f2", 1), ("f1", "e1", 1), ("f2", "e2", 1),
        ("f12", "e12", -1)]
    w = ACTION_TABLE["w"]
    for o, x, f, y, b, s in edges:
        assert (o, f) in w[x] and (tuple(-d for d in o), b) in w[y]
        assert liealg.tau(x) == {y: s} and TAU[x] == (y, s)
    assert [o for o, *_ in edges if sum(map(abs, o)) == 1] == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _residual(row: dict, x: dict):
    """The row's left-hand side at the values x (absent means zero)."""
    return sum((coeff * x.get(idx, 0) for idx, coeff in row.items()), 0)


def test_the_two_product_row_check_agrees_with_the_residual():
    """On random rows of one and two unknowns, exact and over Q(mu1), with
    the values satisfying the row, breaking it, zero or absent from x."""
    rnd = random.Random(33)
    exact = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 7)]
    symbolic = [MU1 + c for c in exact] + [(MU1 * MU1 - c) / (MU1 + 3) for c in exact]
    seen = set()
    for _ in range(600):
        pool = rnd.choice((exact, symbolic, exact + symbolic))
        row = dict(zip("cd", rnd.sample([v for v in pool if v], rnd.choice((1, 2)))))
        x = {col: rnd.choice(pool) for col in row if rnd.random() < 0.8}
        if len(row) == 2 and x.get("c") and rnd.random() < 0.5:
            x["d"] = -row["c"] * x["c"] / row["d"]  # the row holds
        x.update({"z": rnd.choice(pool)} if rnd.random() < 0.3 else {})
        want = bool(_residual(row, x))
        assert hom._fails(row, x) == want, (row, x)
        seen.add((len(row), len(x.keys() & row), want))
    assert seen == {(n, k, w) for n in (1, 2) for k in range(n + 1)
                    for w in (False, True) if k or not w}


def test_exact_row_checks_make_no_fraction(monkeypatch):
    """The cross-product test reads numerators and denominators: over Q it
    multiplies ints only, at every row of the r = 2 self-duality."""
    src = ModuleDescriptor(PG, dual=True)
    tgt = ModuleDescriptor(PG, dual=False)
    box = Box.radius(2)
    (sol,) = solve_intertwiner(src, tgt, box)
    _, rows = intertwiner_equations(src, tgt, box)
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    assert Fraction(1, 2) and made  # the count sees a Fraction made
    made.clear()
    assert not any(hom._fails(row, sol.x) for row in rows)
    assert not made and len(rows) > 100


if __name__ == "__main__":
    # regenerate the golden file, one problem a line:
    # PYTHONPATH=src python tests/test_hom.py
    GOLDEN_HOM.write_text("{\n" + ",\n".join(
        f" {json.dumps(group)}: [\n  "
        + ",\n  ".join(json.dumps(e) for e in _golden_entries(group)) + "\n ]"
        for group in REGISTERED_HOM) + "\n}\n")
