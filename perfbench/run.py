"""Benchmark of the gtsl3 engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload window-sweep --seed 1 --seconds 12 --trace 0

One run measures one workload in this process, with no worker threads.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it wraps the engine's layers and reports the per-layer metrics instead.
The last line of standard output is the result as one JSON object.
``--workload all`` runs every workload in a fresh process, untraced and
traced, and prints a summary with the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# per-case time limits in reference seconds; a case at its limit is
# interrupted and counted as a timeout.  The symbolic limit sits well above
# every case that finishes today (slowest 1.1 s) and far below those that
# do not (> 30 s).
LIMITS = {
    "verify-paper": 90.0,
    "window-sweep": 30.0,
    "symbolic-sweep": 2.0,
    "cli-requests": 5.0,
}
SETUP_REPEATS = 5  # set-up timings before the passes, and again after
# cli-requests runs at least this many requests, so that at least 11 lie
# beyond its p99 even when a slow spell cuts the rounds done in --seconds
MIN_REQUESTS = {"cli-requests": 1100}


def _build(workload: str, seed: int):
    """Function returning the cases of the next pass."""
    import climix
    import workloads

    return {
        "verify-paper": workloads.verify_paper,
        "window-sweep": workloads.window_sweep,
        "symbolic-sweep": workloads.symbolic_sweep,
        "cli-requests": climix.cli_requests,
    }[workload](seed)


def measure_setup(clock, times: list, repeats: int):
    """Append the reference seconds that each of ``repeats`` fresh
    interpreters takes to import gtsl3 and its registry."""
    cmd = [sys.executable, "-c",
           "import sys; sys.path.insert(0, sys.argv[1]); import gtsl3, gtsl3.registry",
           str(SRC)]
    for _ in range(repeats):
        clock.sample(3)  # the clock's own ticks stop while this process waits
        start = clock.mark()
        subprocess.run(cmd, check=True)
        times.append(clock.measure(start, clock.mark(), "text")[1])


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # never ask git about a repository around ROOT
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """(outcomes, metrics) of one run."""
    import harness
    import tracer

    with harness.SpeedClock() as clock:
        if not trace:
            # set-up is timed before and after the passes, so that a slow
            # spell at either end moves the median less; the first start
            # writes the bytecode caches and is not timed
            setup = []
            measure_setup(clock, [], 1)
            measure_setup(clock, setup, SETUP_REPEATS)
            walls, outcomes = harness.run_passes(_build(workload, seed), LIMITS[workload],
                                                 seconds, clock,
                                                 MIN_REQUESTS.get(workload, 1))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            measure_setup(clock, setup, SETUP_REPEATS)
            # a request is one CLI call in cli-requests; a batch workload's
            # whole pass is one request, as `gtsl3 verify-paper` is one command
            requests = ([o.seconds for o in outcomes] if workload == "cli-requests"
                        else walls)
            return outcomes, harness.end_to_end(walls, outcomes, requests,
                                                statistics.median(setup), rss_mb)
        with tracer.Tracer() as tr:
            walls, outcomes = harness.run_passes(_build(workload, seed), LIMITS[workload],
                                                 seconds, clock)
    return outcomes, layer_metrics(tr, walls, outcomes)


def layer_metrics(tr, walls, outcomes) -> dict:
    """Per-layer metrics of a traced run: the tracer's counts and times,
    the single-case curves, and the traced pass time."""
    metrics = tr.metrics()
    for name in curve_names():
        metrics[name] = (0.0, "s")
    for o in outcomes:
        if o.curve is not None:
            metrics[o.curve] = (o.seconds, "s")
    metrics["trace.wall_s"] = (statistics.median(walls), "s")
    return metrics


def curve_names():
    """Per-layer metrics fed by single cases' times; 0 where a workload
    does not run the case."""
    import answers

    names = [f"registry.{cid}_s" for cid in answers.CHECK_IDS]
    names += [f"module.roundtrip_{kind}_s.m{m}" for kind in ("sym", "spec")
              for m in range(9)]
    names += [f"hom.solve_s.r{r}" for r in range(2, 7)]
    names += [f"hom.recurrence_s.r{r}" for r in range(2, 9)]
    names += [f"explore.generate_s.r{r}" for r in range(2, 9)]
    names += [f"subquotient.classify_s.r{r}" for r in range(3, 8)]
    return names


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    for workload in LIMITS:
        rows = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            rows[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        untraced, traced = rows[0], rows[1]
        overhead = (traced["metrics"]["trace.wall_s"]["value"]
                    - untraced["metrics"]["wall_s"]["value"])
        print(f"== {workload}: attempted {untraced['attempted']}, "
              f"failed {untraced['failed']}, correct {untraced['correct']}")
        for name, m in untraced["metrics"].items():
            print(f"{workload:15s} {name:34s} {m['value']:14.6g} {m['unit']}")
        for name, m in traced["metrics"].items():
            if m["value"]:
                print(f"{workload:15s} {name:34s} {m['value']:14.6g} {m['unit']}  (traced)")
        print(f"{workload:15s} {'trace.overhead_s':34s} {overhead:14.6g} s")
        summary[workload] = {"untraced": untraced, "traced": traced,
                             "trace_overhead_s": overhead}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*LIMITS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gtsl3" / "__init__.py").is_file():
        print(f"gtsl3 sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    import gtsl3

    if Path(gtsl3.__file__).resolve().parent != SRC / "gtsl3":
        print(f"imported gtsl3 from {gtsl3.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(args.seed)), flush=True)
    outcomes, metrics = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    for o in outcomes:
        if o.status != "pass":
            print(f"# {o.status} {o.name}: {o.detail}")
    print(f"# wall-clock seconds in timed calls: {sum(o.raw_seconds for o in outcomes):.3f}, "
          f"reference seconds: {sum(o.seconds for o in outcomes):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    import harness

    print(json.dumps(harness.result_line(outcomes, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
