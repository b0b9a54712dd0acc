"""Tests of the benchmark itself: answer checking, the per-case limit, the
tracer, and agreement of the emitted metric names with BENCHMARK.json."""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import climix  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from answers import NINE_SETS, scalar_at  # noqa: E402
from harness import Case  # noqa: E402

from gtsl3 import hom, registry  # noqa: E402
from gtsl3.module import Box, Params  # noqa: E402
from gtsl3.scalars import MU1, RatFunc  # noqa: E402
from gtsl3.subquotient import LBarSet  # noqa: E402


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_wrong_expected_answer_counts_as_failed():
    text, kind = NINE_SETS[-1]  # lbar=1 is a subquotient
    right = climix.Mix(0).classify(text, kind)
    wrong = climix.Mix(0).classify(text, "submodule")
    with harness.SpeedClock() as clock:
        outcomes = [harness.run_case(c, 5.0, clock) for c in (right, wrong)]
    assert [o.status for o in outcomes] == ["pass", "wrong"]
    line = harness.result_line(outcomes, {})
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)
    metrics = harness.end_to_end([1.0], outcomes, [1.0], 0.1, 20.0)
    assert metrics["passed_share"][0] == 0.5
    assert metrics["decided_share"][0] == 1.0


def test_engine_exception_counts_as_failed_but_not_wrong():
    argv = ["act", "--gen", "e1", "--element", "[1]"]  # raises TypeError today
    with harness.SpeedClock() as clock:
        outcome = harness.run_case(Case("malformed", lambda: climix.call(argv),
                                        climix.rejected), 5.0, clock)
    assert outcome.status in ("error", "pass")
    if outcome.status == "error":
        assert "TypeError" in outcome.detail
        line = harness.result_line([outcome], {})
        assert line["correct"] and line["failed"] == 1


def test_case_over_the_limit_is_interrupted_as_timeout():
    def spin():
        while True:
            pass

    t0 = time.perf_counter()
    with harness.SpeedClock() as clock:
        outcome = harness.run_case(Case("spin", spin, lambda _: True), 0.2, clock)
    assert outcome.status == "timeout"
    assert 0.2 <= outcome.seconds < 0.3 and time.perf_counter() - t0 < 1.0
    metrics = harness.end_to_end([outcome.seconds], [outcome], [outcome.seconds], 0.1, 20.0)
    assert metrics["decided_share"][0] == 0 and metrics["passed_share"][0] == 0


def test_symbolic_hom_case_is_interrupted_by_the_limit():
    sym0 = Params(MU1, RatFunc(0))
    J = LBarSet.eq(0)
    src = hom.ModuleDescriptor(sym0, dual=True, J=J)
    tgt = hom.ModuleDescriptor(sym0, dual=False, J=J)
    case = Case("eq0 r=2", lambda: hom.solve_intertwiner(src, tgt, src.window(2)),
                lambda sols: len(sols) == 1)
    with harness.SpeedClock() as clock:
        assert harness.run_case(case, 0.3, clock).status == "timeout"


def test_scalar_strings_evaluate_exactly():
    assert scalar_at("(mu1^2 - 3/2*mu2 + 1)/(2*mu1*mu2 - 1)", 1, 2) == Fraction(-1, 3)
    assert scalar_at("-8/15", 0, 0) == Fraction(-8, 15)
    assert scalar_at("(-mu1)", 3, 5) == -3


def test_tracer_wraps_every_binding_and_restores_it():
    original = hom.solve_intertwiner
    with tracer.Tracer() as tr:
        assert registry.solve_intertwiner is hom.solve_intertwiner is not original
        p = Params.symbolic()
        (p.mu1 + p.mu2) * p.mu1
        climix.call(["act", "--basis", "eta", "--gen", "e1", "--element",
                     '{"terms":[{"k":0,"l":0,"m":1,"c":"1"}]}'])
        generic = Params(Fraction(1, 3), Fraction(1, 5))
        hom.solve_intertwiner(hom.ModuleDescriptor(generic, dual=True),
                              hom.ModuleDescriptor(generic), Box.radius(1))
    assert hom.solve_intertwiner is original and registry.solve_intertwiner is original
    m = tr.metrics()
    assert m["scalars.ratfunc_ops"][0] == 2
    assert m["dual.eta_action_calls"][0] >= 1
    assert m["module.act_calls"][0] == 1
    assert m["hom.equations"][0] > 0 and m["hom.unknowns"][0] == 18
    times = tr.layer_times()
    assert times["cli.main"][0] == 1
    assert times["hom.solve_intertwiner"][1] >= times["solver.nullspace"][1] > 0


def test_metric_names_match_benchmark_json():
    doc = spec()
    walls = [1.0]
    outcomes = [harness.Outcome("x", "pass", 1.0)]
    e2e = harness.end_to_end(walls, outcomes, walls, 0.1, 20.0)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        k: u for k, (_, u) in e2e.items()}
    with tracer.Tracer() as tr:
        pass
    layers = run.layer_metrics(tr, walls, outcomes)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        k: u for k, (_, u) in layers.items()}
    assert [w["name"] for w in doc["workloads"]] == list(run.LIMITS)


def _argvs(cases):
    return [cell.cell_contents for c in cases for cell in c.run.__closure__ or ()
            if isinstance(cell.cell_contents, list)]


@pytest.mark.parametrize("seed", [0, 1])
def test_cli_round_is_seeded_and_of_fixed_composition(seed):
    a, b = climix.Mix(seed).round(), climix.Mix(seed).round()
    assert [c.name for c in a] == [c.name for c in b]
    assert _argvs(a) == _argvs(b) and len(_argvs(a)) > 80
    other = climix.Mix(seed + 7).round()
    assert _argvs(other) != _argvs(a)
    assert sorted(c.name for c in a) == sorted(c.name for c in other)
