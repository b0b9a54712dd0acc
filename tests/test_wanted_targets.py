"""The action evaluates a coefficient only toward a target its caller reads.

The equation assembly, the recurrence, generation and closure are compared
with ``unfiltered_oracle``, which evaluates every coefficient and drops
unread targets afterwards, and every ACTION_TABLE coefficient is logged to
show which targets are evaluated at all.  The eta action is read off the
w-table at call time, so an eta read of X at a toward j is logged as the
w read of Y at j toward a, tau(X) = s Y, and ``_as_eta`` reads it back.
"""

import random
from fractions import Fraction

import pytest

import unfiltered_oracle as oracle
from gtsl3 import liealg, registry
from gtsl3.errors import ObstructionAtIndex
from gtsl3.explore import generate
from gtsl3.hom import (ModuleDescriptor, intertwiner_equations, solve_by_recurrence,
                       solve_intertwiner)
from gtsl3.module import (ACTION_TABLE, AXIS_PAIRS, BASIS_ACTIONS, OFF_DIAGONAL, TAU, Box,
                          ModuleElement, Params)
from gtsl3.scalars import MU1, RatFunc
from gtsl3.serialize import parse_set_expr
from gtsl3.subquotient import LBarSet, act_truncated, is_closed

PG = Params(Fraction(1, 3), Fraction(1, 5))
P0 = Params(Fraction(1, 3), Fraction(0))
SYM0 = Params(MU1, RatFunc(0))  # mu1 symbolic, mu2 = 0 exactly
PAIRINGS = ((False, True), (True, False), (False, False), (True, True))
SETS = ("full", "l01", "lbar>=0", "lbar>=1", "lbar>=2", "lbar<=-1", "lbar=0", "lbar=1")


def _problem(params, text, sdual, tdual):
    J = parse_set_expr(text)
    return (ModuleDescriptor(params, dual=sdual, J=J),
            ModuleDescriptor(params, dual=tdual, J=J))


def _printed_rows(equations):
    indices, rows = equations
    return indices, [[(idx, type(v).__name__, str(v)) for idx, v in row.items()]
                     for row in rows]


# ---------------------------------------------------------------------------
# against the unfiltered oracles

ROW_PROBLEMS = {
    "generic": [(PG, "full", s, t, r) for s, t in PAIRINGS for r in (2, 3)],
    "mu1=0": [(Params(0, Fraction(1, 5)), "full", s, t, 3) for s, t in PAIRINGS],
    **{f"mu2={mu2}": [(Params(Fraction(1, 3), mu2), text, s, t, r)
                      for text in SETS for s, t in PAIRINGS for r in (2, 3)]
       for mu2 in (0, 3, -1)},
    "Q(mu1), mu2=0": [(SYM0, text, s, t, r) for text in SETS
                      for s, t in PAIRINGS for r in (1, 2)],
    "Q(mu1, mu2)": [(Params.symbolic(), "full", s, t, 1) for s, t in PAIRINGS],
}


@pytest.mark.parametrize("group", list(ROW_PROBLEMS))
def test_equations_are_the_oracle_rows_in_order_and_printed(group):
    for params, text, sdual, tdual, r in ROW_PROBLEMS[group]:
        src, tgt = _problem(params, text, sdual, tdual)
        box = src.window(r)
        assert (_printed_rows(intertwiner_equations(src, tgt, box))
                == _printed_rows(oracle.intertwiner_equations(src, tgt, box))), (
            text, sdual, tdual, r)


def _outcome(solve, *args):
    try:
        sol = solve(*args)
    except ObstructionAtIndex as e:
        return ("obstruction", e.index, e.generator, e.detail)
    except ValueError as e:
        return ("unreachable", str(e))
    return [(idx, type(v).__name__, str(v)) for idx, v in sorted(sol.x.items())]


RECURRENCE_POINTS = {
    "generic": (PG, ["full"]),
    "mu1=0": (Params(0, Fraction(1, 5)), ["full"]),
    **{f"mu2={mu2}": (Params(Fraction(1, 3), mu2), SETS) for mu2 in (0, 3)},
}


@pytest.mark.parametrize("params,sets", RECURRENCE_POINTS.values(),
                         ids=list(RECURRENCE_POINTS))
def test_recurrence_solutions_and_obstructions_are_the_oracles(params, sets):
    rnd = random.Random(17)
    outcomes = set()
    for text in sets:
        for sdual, tdual in PAIRINGS:
            src, tgt = _problem(params, text, sdual, tdual)
            for r in (2, 3):
                box = src.window(r)
                indices = src.indices(box)
                for seed in [indices[len(indices) // 2]] + rnd.sample(indices, 2):
                    args = (src, tgt, seed, Fraction(1), box)
                    want = _outcome(oracle.solve_by_recurrence, *args)
                    assert _outcome(solve_by_recurrence, *args) == want, (
                        text, sdual, tdual, r, seed)
                    outcomes.add(want[0] if isinstance(want[0], str) else "solved")
    assert "solved" in outcomes
    if params.mu1_integral() or params.mu2_integral():
        assert "obstruction" in outcomes


GENERATION_CASES = [(PG, None), (Params(0, Fraction(1, 5)), None)] + [
    (P0, J) for J in (None, LBarSet.ge(0), LBarSet.eq(1), LBarSet.between(0, 1),
                      LBarSet.le(-1), LBarSet.ge(2))]


@pytest.mark.parametrize("params,J", GENERATION_CASES)
def test_generation_reaches_the_oracles_indices_by_its_paths(params, J):
    for dual in (False, True):
        desc = ModuleDescriptor(params, dual=dual, J=J)
        for r in (2, 3):
            box = desc.window(r)
            indices = desc.indices(box)
            for start in (indices[0], indices[len(indices) // 2], indices[-1]):
                got = generate([start], desc, box)
                want = oracle.generate([start], desc, box)
                assert got.reached == want.reached, (dual, r, start)
                assert got.missing == want.missing, (dual, r, start)
                assert got.paths == want.paths, (dual, r, start)


CLOSURE_SETS = [LBarSet.ge(0), LBarSet.eq(0), LBarSet.between(0, 1), LBarSet.le(1),
                LBarSet.ge(2), LBarSet.eq(1), LBarSet([(None, -2), (1, 1)])]


@pytest.mark.parametrize("mu2", [0, 2])
@pytest.mark.parametrize("basis", ["w", "eta"])
def test_closure_witnesses_are_the_oracles(basis, mu2):
    p = Params(Fraction(1, 3), mu2)
    for J in CLOSURE_SETS + [J.complement() for J in CLOSURE_SETS]:
        for r in (2, 3, 4):
            box = Box.radius(r, mu2)
            got = is_closed(ModuleDescriptor(p, basis == "eta", J), box)
            want = oracle.is_closed(J, basis, box, p)
            assert (got.closed, got.witnesses) == (want.closed, want.witnesses), (
                repr(J), r)


# ---------------------------------------------------------------------------
# which coefficients are evaluated

def _logged(log, p, basis, gen, offset, coefficient):
    def logged(q, m):
        c = coefficient(q, m)
        source = (int(q.kb + p.mu1), int(q.lb + p.mu2), m)
        target = tuple(i + d for i, d in zip(source, offset))
        log.append((basis, gen, source, target, c))
        return c

    return logged


def _evaluations(monkeypatch, p):
    """The list that every ACTION_TABLE coefficient, evaluated at the
    specialized parameters p, appends (basis, generator, source index,
    target index, coefficient) to."""
    log = []
    for basis, table in ACTION_TABLE.items():
        for gen, entry in list(table.items()):
            monkeypatch.setitem(table, gen, tuple(
                (offset, _logged(log, p, basis, gen, offset, coefficient))
                for offset, coefficient in entry))
    return log


def _as_eta(read):
    """A logged w read of Y at j toward a as the eta read of X at a toward j
    that it is, where TAU[X] = (Y, s): (basis, X, a, j, -s c)."""
    _, y, j, a, c = read
    (x, s), = [(x, s) for x, (z, s) in TAU.items() if z == y]
    return "eta", x, a, j, -s * c


def _reads(log, dual):
    """The log's reads as the action of the module, or of its dual, made them."""
    return [_as_eta(read) for read in log] if dual else list(log)


EDGE_CASES = [(PG, "full", s, t) for s, t in PAIRINGS] + [
    (P0, text, s, t) for text in ("full", "l01", "lbar>=0") for s, t in PAIRINGS]


@pytest.mark.parametrize("params,text,sdual,tdual", EDGE_CASES)
def test_no_coefficient_is_evaluated_toward_an_edge_that_has_a_row(
        monkeypatch, params, text, sdual, tdual):
    """Each edge's two w-coefficients, X's F at its lower end and then Y's B
    at its upper end, are read once, while the lower end is visited in
    window order; in a same-basis problem B only where F vanishes.  No eta
    coefficient is read, none toward an index outside the window, and none
    on an edge whose ends the rows already returned force to zero; an edge
    read with a nonzero coefficient gives the next row."""
    src, tgt = _problem(params, text, sdual, tdual)
    log = _evaluations(monkeypatch, params)
    indices, rows = intertwiner_equations(src, tgt, src.window(3))
    inside, rank = set(indices), {a: n for n, a in enumerate(indices)}
    visits = []  # [[(lower end, upper end), coefficient, ...], ...] in read order
    for basis, gen, a, j, c in log:
        assert basis == "w" and a in inside and j in inside, (basis, gen, a, j)
        if a < j:  # F: a new edge
            visits.append([(a, j), c])
        else:  # B, right after its edge's F
            assert visits[-1][0] == (j, a) and len(visits[-1]) == 2, (gen, a, j)
            assert sdual != tdual or visits[-1][1] == 0, (gen, a, j)
            visits[-1].append(c)
    zeros, pending = oracle.ForcedZeros(), iter(rows)
    for n, ((lo, hi), *coefficients) in enumerate(visits):
        assert sdual == tdual or len(coefficients) == 2, (lo, hi)
        assert n == 0 or rank[visits[n - 1][0][0]] <= rank[lo], (lo, hi)
        assert not zeros.both(lo, hi), (lo, hi)
        if any(coefficients):
            row = next(pending)
            assert set(row) <= {lo, hi}, (lo, hi, row)
            zeros.keep(row)
    assert next(pending, None) is None
    assert len({edge for edge, *_ in visits}) == len(visits)


SAME_BASIS_CASES = [case for case in EDGE_CASES if case[2] == case[3]]


@pytest.mark.parametrize("params,text,sdual,tdual", SAME_BASIS_CASES, ids=[
    f"{'dual' if dual else 'plain'}:{text}, mu2={params.mu2}"
    for params, text, dual, _ in SAME_BASIS_CASES])
def test_a_same_basis_assembly_reads_each_coefficient_once(
        monkeypatch, params, text, sdual, tdual):
    """Source and target share one table, so the lower end's coefficient is
    read once for both sides of the row, and the upper end's only after it."""
    src, tgt = _problem(params, text, sdual, tdual)
    log = _evaluations(monkeypatch, params)
    intertwiner_equations(src, tgt, src.window(3))
    reads = [entry[:4] for entry in log]
    assert reads and len(reads) == len(set(reads))


def test_an_edge_whose_lower_end_coefficient_vanishes_gets_its_row_from_its_upper_end(
        monkeypatch):
    """plain -> plain at mu2 = 0: the w-table's entries that raise l carry
    lbar(lbar - 1), which vanishes on lbar = 0 and 1, so an edge from there
    up one level is written at its lower end from its upper end's
    coefficient; like every same-basis row, it is x_j - x_a."""
    src, tgt = _problem(P0, "full", False, False)
    box = src.window(3)
    indices = src.indices(box)
    inside = set(indices)
    with_row = {(min(a, j), max(a, j)) for a in indices for gen in OFF_DIAGONAL
                for j, _ in BASIS_ACTIONS["w"](gen, P0, a) if j in inside}
    log = _evaluations(monkeypatch, P0)
    _, rows = intertwiner_equations(src, tgt, box)
    edges = [(min(row), max(row)) for row in rows]
    assert len(edges) == len(set(edges)) and set(edges) == with_row
    assert [list(row.items()) for row in rows] == [
        [(hi, Fraction(1)), (lo, Fraction(-1))] for lo, hi in edges]
    rank = [indices.index(lo) for lo, _ in edges]
    assert rank == sorted(rank)  # each row at its lower end, in window order
    # (lower end, upper end, read at the upper end, coefficient) per read
    reads = [(min(a, j), max(a, j), a > j, c) for _, _, a, j, c in log]
    for n, (lo, hi, at_upper, c) in enumerate(reads):
        if at_upper:  # right after the lower end's read, which was zero
            assert reads[n - 1] == (lo, hi, False, 0), (lo, hi)
    claimed = {(lo, hi) for lo, hi, at_upper, c in reads if at_upper and c}
    assert ((0, 0, 0), (0, 1, 0)) in claimed
    assert all(lo[1] in (0, 1) and hi[1] == lo[1] + 1 for lo, hi in claimed)
    assert (_printed_rows((indices, rows))
            == _printed_rows(oracle.intertwiner_equations(src, tgt, box)))


def _hom_answers(problems):
    """The printed solve_intertwiner basis, where it finishes in well under a
    second (exact, or over Q(mu1) at r = 1), and the recurrence outcome from
    the window's middle index, of each problem."""
    out = []
    for params, text, sdual, tdual, r in problems:
        src, tgt = _problem(params, text, sdual, tdual)
        box = src.window(r)
        indices = src.indices(box)
        if not indices:
            continue
        solved = None
        if not params.is_symbolic or (r == 1 and params.mu2_integral()):  # not Q(mu1, mu2)
            solved = [[(i, str(v)) for i, v in sorted(sol.x.items())]
                      for sol in solve_intertwiner(src, tgt, box)]
        seed = indices[len(indices) // 2]
        out.append((solved, _outcome(solve_by_recurrence, src, tgt, seed, Fraction(1), box)))
    return out


MODULE_DUAL_PROBLEMS = [case for cases in ROW_PROBLEMS.values() for case in cases
                        if case[2] != case[3]]


def test_hom_reads_no_eta_coefficient_and_sees_a_patched_w_entry(monkeypatch):
    """The eta action patched to raise: each module-dual solve and
    recurrence of ROW_PROBLEMS prints what it printed before.  Then the
    w-table's f1 coefficient toward (k + 1, l, m) doubled: plain -> dual and
    dual -> plain rows both carry it, on the F side of each such edge, and
    the recurrence's step from (0, 0, 0) to (1, 0, 0) halves and doubles."""
    want = _hom_answers(MODULE_DUAL_PROBLEMS)

    def unread(*args):
        raise AssertionError("the eta action was read")

    monkeypatch.setitem(BASIS_ACTIONS, "eta", unread)
    assert _hom_answers(MODULE_DUAL_PROBLEMS) == want
    before = {sdual: intertwiner_equations(*_problem(PG, "full", sdual, not sdual),
                                           Box.radius(2))[1] for sdual in (False, True)}
    steps = {sdual: solve_by_recurrence(*_problem(PG, "full", sdual, not sdual), (0, 0, 0),
                                        Fraction(1), Box.radius(1)).value((1, 0, 0))
             for sdual in (False, True)}
    ((off, coeff), side) = ACTION_TABLE["w"]["f1"]
    monkeypatch.setitem(ACTION_TABLE["w"], "f1", ((off, lambda q, m: 2 * coeff(q, m)), side))
    for sdual in (False, True):
        src, tgt = _problem(PG, "full", sdual, not sdual)
        _, rows = intertwiner_equations(src, tgt, Box.radius(2))
        assert len(rows) == len(before[sdual])
        doubled = 0
        for old, new in zip(before[sdual], rows):
            lo, hi = min(old), max(old)
            f_side = (lo if sdual else hi) if tuple(
                j - i for i, j in zip(lo, hi)) == off else None
            assert new == {c: 2 * v if c == f_side else v for c, v in old.items()}
            doubled += f_side is not None
        assert doubled > 10
        new = solve_by_recurrence(src, tgt, (0, 0, 0), Fraction(1), Box.radius(1))
        assert new.value((1, 0, 0)) == steps[sdual] * (2 if sdual else Fraction(1, 2))


def test_the_window_alone_decides_which_targets_the_equations_read(monkeypatch):
    """J is tested once per window index, by indices(box), and never again
    per target: the window set already holds only indices of J."""
    calls = []
    contains = ModuleDescriptor.contains
    monkeypatch.setattr(ModuleDescriptor, "contains",
                        lambda self, idx: calls.append(idx) or contains(self, idx))
    src, tgt = _problem(P0, "lbar>=0", True, False)
    box = src.window(3)
    intertwiner_equations(src, tgt, box)
    assert calls == list(box) and len(calls) == 196


@pytest.mark.parametrize("params,J", GENERATION_CASES)
def test_no_coefficient_is_evaluated_toward_a_reached_index(monkeypatch, params, J):
    log = _evaluations(monkeypatch, params)
    for dual in (False, True):
        desc = ModuleDescriptor(params, dual=dual, J=J)
        box = desc.window(3)
        allowed = set(desc.indices(box))
        start = desc.indices(box)[len(allowed) // 2]
        log.clear()
        cert = generate([start], desc, box)
        reached = {start}
        for _, gen, idx, jdx, c in _reads(log, dual):
            assert jdx in allowed and jdx not in reached, (dual, gen, idx, jdx)
            if c != 0:
                reached.add(jdx)
        assert sorted(reached) == cert.reached


@pytest.mark.parametrize("basis", ["w", "eta"])
def test_no_coefficient_is_evaluated_toward_a_target_inside_the_set(monkeypatch, basis):
    log = _evaluations(monkeypatch, P0)  # mu2 = 0, so lbar = l
    for J in CLOSURE_SETS + [J.complement() for J in CLOSURE_SETS]:
        log.clear()
        verdict = is_closed(ModuleDescriptor(P0, basis == "eta", J), Box.radius(3))
        reads = _reads(log, basis == "eta")
        assert reads and not any(J.contains(jdx[1]) for _, _, _, jdx, _ in reads), repr(J)
        assert verdict.witnesses == [(idx, gen, jdx) for _, gen, idx, jdx, c in reads
                                     if c != 0]


def test_recurrence_and_axis_certificate_evaluate_only_the_axis_step(monkeypatch):
    step = {gen: tuple(sign * (i == axis) for i in range(3))
            for axis, pair in enumerate(AXIS_PAIRS) for gen, sign in zip(pair, (-1, 1))}
    log = _evaluations(monkeypatch, PG)
    src, tgt = _problem(PG, "full", True, False)
    solve_by_recurrence(src, tgt, (0, 0, 0), Fraction(1), Box.radius(2))
    assert registry.run_check("simplicity-generic", window=2)["verdict"] == "pass"
    assert log and all(tuple(j - i for i, j in zip(idx, jdx)) == step[gen]
                       for _, gen, idx, jdx, _ in log)


@pytest.mark.parametrize("basis", ["w", "eta"])
def test_truncated_action_evaluates_nothing_toward_a_target_outside_the_set(
        monkeypatch, basis):
    log = _evaluations(monkeypatch, P0)  # mu2 = 0, so lbar = l
    for J in CLOSURE_SETS:
        levels = [lv for lv in range(-3, 4) if J.contains(lv)]
        v = ModuleElement(P0, basis, {(k, lv, m): Fraction(k + 5)
                                      for k in (-1, 1) for lv in levels for m in (0, 2)})
        log.clear()
        for gen in liealg.GENERATORS:
            act_truncated(gen, v, J)
        reads = _reads(log, basis == "eta")
        assert reads and all(J.contains(jdx[1]) for _, _, _, jdx, _ in reads), repr(J)
