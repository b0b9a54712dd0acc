import functools
import json
import random
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest

from gtsl3 import hom
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
from gtsl3.module import ACTION_TABLE, OFF_DIAGONAL, Box, Params
from gtsl3.registry import HOM_STATEMENTS
from gtsl3.scalars import MU1, RatFunc
from gtsl3.serialize import parse_set_expr
from gtsl3.solver import nullspace
from gtsl3.subquotient import LBarSet
from nullspace_oracle import nullspace_oracle

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

def _equations_oracle(source, target, box):
    """(indices, [((a, j), row), ...]): the row matching the coefficient of
    b'_j in phi(X b_a) = X phi(b_a), from both ends of every edge."""
    indices = source.indices(box)
    inside = set(indices)
    edges = []
    for a in indices:
        for gen in OFF_DIAGONAL:
            src = source.action(gen, a)
            tgt = target.action(gen, a)
            for j in set(src) | set(tgt):
                if j not in inside:
                    continue
                row = {}
                if j in src:
                    row[j] = src[j]
                if j in tgt:
                    row[a] = row.get(a, 0) - tgt[j]
                row = {c: v for c, v in row.items() if v != 0}
                if row:
                    edges.append(((a, j), row))
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
                    ["full", "l01", "lbar>=0", "lbar>=2", "lbar<=-1"], MODULE_DUAL)
       for t in (0, 3, -1)},
    "same-basis mu2=0": (P0, ["full", "l01", "lbar>=2"], SAME_BASIS),
}


@pytest.mark.parametrize("params,sets,pairings", ORACLE_POINTS.values(),
                         ids=list(ORACLE_POINTS))
def test_comparison_rows_match_the_assembly_and_recurrence_oracles(params, sets, pairings):
    """A module-dual problem assembles the row at the lower end of each edge
    (j > a) and leaves out the upper-end row, which is that row or its
    negative; a same-basis problem assembles the first row of each edge,
    and every other row on the edge is a multiple of it."""
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
                            first = kept.setdefault((min(a, j), max(a, j)), row)
                            q = row[a] / first[a]
                            assert q != 0 and row == {
                                c: q * v for c, v in first.items()}, (text, sdual, a, j)
                        want = list(kept.values())
                    else:
                        kept = {e: row for e, row in edges if e[1] > e[0]}
                        for (a, j), row in edges:
                            if j < a:
                                twin = kept[j, a]
                                assert row == twin or row == {
                                    c: -v for c, v in twin.items()}, (text, sdual, a, j)
                        want = list(kept.values())
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
    # one spanning tree of the 196 unknowns, its rows in assembly order
    assert (len(indices), len(rows), len(forest)) == (196, 735, 195)
    edges = {frozenset(row) for row in forest}
    assert [row for row in rows if frozenset(row) in edges] == forest


def test_a_broken_cycle_drops_its_tree_as_elimination_of_every_row_does(monkeypatch):
    """The w-basis f1 coefficients doubled at lbar = 2, m = 1, inside the
    second of the two trees of a dimension-2 problem: the forest solve
    still finds both trees, and the check of the cycle rows drops the
    broken one, as eliminating every row does."""
    (off, coeff), side = ACTION_TABLE["w"]["f1"]

    def doubled(kb, lb, m):
        return 2 * coeff(kb, lb, m) if (lb, m) == (2, 1) else coeff(kb, lb, m)

    monkeypatch.setitem(ACTION_TABLE["w"], "f1", ((off, doubled), side))
    calls = _spy_on_nullspace(monkeypatch)
    src, tgt, box = _problem(P0, None, False, True, 2)
    got = _printed(solve_intertwiner(src, tgt, box))
    [(_, forest_basis)] = calls
    indices, rows = intertwiner_equations(src, tgt, box)
    want = _printed([HomSolution(src, tgt, box, vec).normalized()
                     for vec in nullspace_oracle(rows, indices)])
    assert (len(forest_basis), len(got)) == (2, 1) and got == want


if __name__ == "__main__":
    # regenerate the golden file, one problem a line:
    # PYTHONPATH=src python tests/test_hom.py
    GOLDEN_HOM.write_text("{\n" + ",\n".join(
        f" {json.dumps(group)}: [\n  "
        + ",\n  ".join(json.dumps(e) for e in _golden_entries(group)) + "\n ]"
        for group in REGISTERED_HOM) + "\n}\n")
