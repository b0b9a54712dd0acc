"""Case runner shared by every workload.

A workload is a sequence of passes; a pass is a list of cases.  Each case
is one timed call into the engine plus a check of its result against an
answer the benchmark holds.  Every case runs under a time limit: a case
still running at the limit is interrupted by SIGALRM and recorded as
``timeout``.  Nothing runs in another thread or process.

Times are reported in reference seconds.  The shared machines this runs on
change speed by up to 1.6x for seconds to minutes at a time, so raw wall
time drifts between runs.  ``SpeedClock`` times two fixed probes every
20 ms of CPU time and rescales each stretch of elapsed time by the probe
times measured around it.  A reference second is a wall-clock second at
the speed where each probe takes its ``REF_PROBE_S`` time, which is a quiet
spell of a shared 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

PROBE_EVERY_S = 0.02  # CPU time between probes
PROBE_WINDOW = 9  # probes in the running median that gives the local speed

_PROBE_TEXT = json.dumps({"basis": "w", "terms": [{"k": 1, "l": -2, "m": 3, "c": "-8/15"}]})


def _probe_arith():
    acc, table = Fraction(0), {}
    for i in range(1, 11):
        x = Fraction(i, i + 2)
        acc = acc + x * x
        table[(i, i % 5, 0)] = acc


def _probe_text():
    ap = argparse.ArgumentParser(prog="probe")
    ap.add_argument("--k", type=int)
    ap.add_argument("--element")
    obj = json.loads(ap.parse_args(["--k", "3", "--element", _PROBE_TEXT]).element)
    Fraction(obj["terms"][0]["c"])
    json.dumps(obj, sort_keys=True)


# Slow spells slow exact arithmetic and text handling by different amounts
# (1.6x against 1.4x), so a case is rescaled by the probe of the work it
# mostly does: "arith" for the engine, "text" for argument and JSON parsing.
# Both probes use the standard library only, so engine changes cannot move
# the reference second.
PROBES = {"arith": _probe_arith, "text": _probe_text}
REF_PROBE_S = {"arith": 55e-6, "text": 155e-6}


class SpeedClock:
    """Measures elapsed time in reference seconds.

    Inside the ``with`` block SIGPROF runs every probe each ``PROBE_EVERY_S``
    of CPU time.  A measured interval is cut at each probe tick; each piece
    is divided by the running median of the last ``PROBE_WINDOW`` times of
    the case's probe and multiplied by that probe's ``REF_PROBE_S``.  The
    ticks themselves are left out.
    """

    def __init__(self):
        self.ends = []  # perf_counter at the end of each tick
        self.spent = []  # duration of each tick
        self.probes = {kind: [] for kind in PROBES}
        self._previous = None

    def __enter__(self):
        self.sample(PROBE_WINDOW)
        self._previous = signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def _on_prof(self, signum, frame):
        self.sample(1)

    def sample(self, n: int):
        """Run n probe ticks now, e.g. before waiting on a child process."""
        clock = time.perf_counter
        for _ in range(n):
            t0 = clock()
            for kind, fn in PROBES.items():
                t = clock()
                fn()
                self.probes[kind].append(clock() - t)
            self.ends.append(clock())
            self.spent.append(self.ends[-1] - t0)

    def mark(self):
        return time.perf_counter(), len(self.ends)

    def _local(self, kind: str, i: int) -> float:
        """Probe time at tick i: median of it and the ticks before."""
        return statistics.median(self.probes[kind][max(0, i - PROBE_WINDOW + 1): i + 1])

    def measure(self, start, end, kind="arith"):
        """(raw seconds, reference seconds) between two marks, ticks excluded."""
        (t0, i0), (t1, i1) = start, end
        raw = ref = 0.0
        cursor = t0
        for i in range(i0, i1):
            piece = self.ends[i] - self.spent[i] - cursor
            raw += piece
            ref += piece / self._local(kind, i)
            cursor = self.ends[i]
        piece = t1 - cursor
        raw += piece
        ref += piece / self._local(kind, max(i1 - 1, 0))
        return raw, ref * REF_PROBE_S[kind]


class CaseTimeout(BaseException):
    """Raised inside a case that ran past its limit.

    A BaseException, so that no ``except Exception`` in the engine can
    swallow it.
    """


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # per-layer metric that this case's time feeds in the traced run
    curve: str | None = None
    # the probe that rescales its time: "arith" or "text" (see PROBES)
    kind: str = "arith"


@dataclass
class Outcome:
    name: str
    status: str  # "pass", "wrong", "error" or "timeout"
    seconds: float  # reference seconds
    raw_seconds: float = 0.0  # wall-clock seconds
    curve: str | None = None
    detail: str = ""

    @property
    def decided(self) -> bool:
        """Returned an answer, right or wrong, within the limit."""
        return self.status in ("pass", "wrong")


def run_case(case: Case, limit: float, clock: SpeedClock) -> Outcome:
    """Time one case under a limit in reference seconds, then check its
    answer untimed."""
    start = clock.mark()

    def on_alarm(signum, frame):
        raw, ref = clock.measure(start, clock.mark(), case.kind)
        if ref < limit:  # a slow spell: wait for the rest of the limit
            signal.setitimer(signal.ITIMER_REAL, max((limit - ref) * raw / ref, 1e-3))
        else:
            raise CaseTimeout

    previous = signal.signal(signal.SIGALRM, on_alarm)

    def outcome(status, detail=""):
        raw, ref = clock.measure(start, clock.mark(), case.kind)
        return Outcome(case.name, status, ref, raw, case.curve, detail)

    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                result = case.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            done = outcome("pass")
        except CaseTimeout:
            return outcome("timeout", f"interrupted at the {limit:g} s limit")
    except Exception as e:  # any engine exception is a failed case, not a crash
        return outcome("error", f"{type(e).__name__}: {e}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    try:
        ok = bool(case.check(result))
    except Exception as e:
        ok, done.detail = False, f"check raised {type(e).__name__}: {e}"
    if not ok:
        done.status = "wrong"
        done.detail = done.detail or f"unexpected answer: {str(result)[:200]}"
    return done


def run_passes(next_pass: Callable[[], list], limit: float, seconds: float,
               clock: SpeedClock, min_cases: int = 1):
    """Run whole passes while the next one is expected to end within
    ``seconds`` of wall time, and until at least ``min_cases`` cases have
    run.  Returns (pass times in reference seconds, outcomes).

    A pass's time is the sum of its timed calls; answer checks are excluded.
    """
    walls, outcomes = [], []
    t_start = time.perf_counter()
    while True:
        done = [run_case(case, limit, clock) for case in next_pass()]
        outcomes += done
        walls.append(sum(o.seconds for o in done))
        used = time.perf_counter() - t_start
        if len(outcomes) >= min_cases and used + used / len(walls) > seconds:
            return walls, outcomes


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(walls, outcomes, requests, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one run; ``requests`` are the latencies,
    in reference seconds, of what a user would see as one request."""
    n = len(outcomes)
    latencies_ms = [r * 1e3 for r in requests]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "decided_share": (sum(o.decided for o in outcomes) / n, "ratio"),
        "passed_share": (sum(o.status == "pass" for o in outcomes) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "request_p50_ms": (statistics.median(latencies_ms), "ms"),
        "request_p99_ms": (percentile(latencies_ms, 0.99), "ms"),
        "requests_per_s": (len(requests) / sum(requests), "1/s"),
    }


def result_line(outcomes, metrics: dict) -> dict:
    """The benchmark's last output line.

    ``correct`` is false when a case answered and the answer was wrong;
    exceptions and timeouts give no answer and count only in ``failed``.
    """
    return {
        "correct": not any(o.status == "wrong" for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.status != "pass" for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
