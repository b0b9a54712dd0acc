"""The cli-requests workload: one client in a closed loop, sending a seeded
request mix through ``gtsl3.cli.main(argv)`` in process.

Each pass is one round of 98 requests of fixed composition; the seed picks
the payloads and the order.  Requests that cost little more than argument
and JSON parsing are timed against the "text" probe, the rest against the
"arith" probe (see ``harness.PROBES``).  The answer to each request is worked out here
from closed formulas (diagonal actions, the u-basis lowering actions, the
pairing, the round trip through the other basis) or from the tables in
``answers``.  A malformed request must get exit 2 and an error JSON.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from answers import (
    GENERIC,
    HOM_STATEMENTS,
    NINE_SETS,
    POINT,
    character,
    interval_json,
    scalar_at,
    window_size,
)
from harness import Case

from gtsl3 import cli

MU1, MU2 = GENERIC


def call(argv):
    """(exit code, stdout) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, out.getvalue()


def _answer(result):
    code, text = result
    lines = text.strip().splitlines()
    return code, (json.loads(lines[-1]) if lines else None)


def _terms_of(obj, symbolic=False) -> dict:
    read = (lambda c: scalar_at(c, *POINT)) if symbolic else Fraction
    return {(t["k"], t["l"], t["m"]): read(t["c"]) for t in obj["terms"]}


def _payload(basis, terms, params=True) -> str:
    obj = {"basis": basis} if basis else {}
    if params:
        obj.update(mu1=str(MU1), mu2=str(MU2))
    obj["terms"] = [{"k": k, "l": l, "m": m, "c": str(c)}
                    for (k, l, m), c in sorted(terms.items())]
    return json.dumps(obj)


def _element_answer(basis, expected: dict, symbolic=False):
    expected = {i: c for i, c in expected.items() if c != 0}

    def ok(result):
        code, obj = _answer(result)
        return (code == 0 and obj["basis"] == basis
                and _terms_of(obj, symbolic) == expected)
    return ok


def rejected(result) -> bool:
    """The answer to a malformed request: exit 2 and an error JSON."""
    code, obj = _answer(result)
    return code == 2 and isinstance(obj, dict) and {"error", "message"} <= set(obj)


def _kb(k):
    return k - MU1


def _lb(l):
    return l - MU2


class Mix:
    """Seeded request generator; ``round()`` gives the next pass."""

    def __init__(self, seed: int):
        self.rnd = random.Random(seed)

    def _idx(self, r=4, mmax=3):
        rnd = self.rnd
        return (rnd.randint(-r, r), rnd.randint(-r, r), rnd.randint(0, mmax))

    def _coeff(self):
        rnd = self.rnd
        return Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 9), rnd.randint(1, 5))

    def _terms(self, n):
        terms = {}
        while len(terms) < n:
            terms[self._idx()] = self._coeff()
        return terms

    # -- well-formed requests ----------------------------------------------

    def gt_word(self):
        (k, l, m), c = self._idx(), self._coeff()
        ev = -m * (_kb(k) + _lb(l) + m - 1)
        argv = ["act", "--word", "f12,e12", "--element", _payload("w", {(k, l, m): c})]
        return Case("act gt-word", lambda: call(argv),
                    _element_answer("w", {(k, l, m): c * ev}), kind="text")

    def cartan(self, basis, gen):
        terms = self._terms(2)

        def ev(k, l, m):
            kb, lb = _kb(k), _lb(l)
            return -2 * kb + lb - m if gen == "h1" else kb - 2 * lb - m

        argv = ["act", "--gen", gen, "--element", _payload(basis, terms)]
        return Case(f"act {gen}", lambda: call(argv),
                    _element_answer(basis, {i: c * ev(*i) for i, c in terms.items()}),
                    kind="text")

    def lowering_u(self, gen):
        """e1 or e12 on a u-vector: -d/dx1 twisted by mu1, or -d/dx3."""
        (k, l, m), c = self._idx(), self._coeff()
        if gen == "e1":
            expected = {(k - 1, l, m): -_kb(k) * c}
        else:
            expected = {(k, l, m - 1): -m * c} if m else {}
        argv = ["act", "--basis", "u", "--gen", gen,
                "--element", _payload(None, {(k, l, m): c})]
        return Case(f"act {gen} u", lambda: call(argv), _element_answer("u", expected),
                    kind="text")

    def change_basis_pair(self, symbolic):
        """w -> u, then the output back to w; the round trip is the identity."""
        idx, c = self._idx(mmax=3 if symbolic else 4), self._coeff()
        k, l, m = idx
        flags = ["--symbolic"] if symbolic else []
        first = flags + ["change-basis", "--to", "u",
                         "--element", _payload("w", {idx: c}, params=not symbolic)]
        hold = {}

        def forward():
            hold["out"] = result = call(first)
            return result

        def forward_ok(result):
            code, obj = _answer(result)
            support = {(k + n, l + n, m - n) for n in range(m + 1)}
            return code == 0 and obj["basis"] == "u" and set(_terms_of(obj, symbolic)) == support

        def back():
            return call(["change-basis", "--to", "w", "--element",
                         hold["out"][1].strip()])

        tag, kind = ("symbolic", "arith") if symbolic else ("specialized", "text")
        return [Case(f"change-basis {tag} to-u", forward, forward_ok, kind=kind),
                Case(f"change-basis {tag} to-w", back,
                     _element_answer("w", {idx: c}, symbolic), kind=kind)]

    def pair(self):
        shared = self._terms(2)
        eta = dict(shared)
        w = {i: self._coeff() for i in shared}
        eta[self._idx()] = self._coeff()
        w[self._idx()] = self._coeff()
        value = sum(eta[i] * w[i] for i in eta if i in w)
        argv = ["pair", "--eta", _payload("eta", eta), "--w", _payload("w", w)]

        def ok(result):
            code, obj = _answer(result)
            return code == 0 and Fraction(obj["value"]) == value
        return Case("pair", lambda: call(argv), ok, kind="text")

    def hom(self, statement, r=3):
        name, set_expr, sdual, tdual, image, kernel = statement
        argv = ["--mu2", "0", "hom",
                "--source", ("dual:" if sdual else "") + set_expr,
                "--target", ("dual:" if tdual else "") + set_expr,
                "--window", str(r)]

        def ok(result):
            code, obj = _answer(result)
            return (code == 0 and obj["dimension"] == 1
                    and obj["image"] == interval_json(image)
                    and obj["kernel"] == interval_json(kernel))
        return Case(f"hom {name}", lambda: call(argv), ok)

    def generate(self, r=2):
        k, l, m = self._idx(r=r, mmax=r)
        argv = ["generate", f"--start={k},{l},{m}", "--window", str(r)]

        def ok(result):
            code, obj = _answer(result)
            return (code == 0 and obj["verdict"] == "covers-window"
                    and obj["reached"] == window_size(r))
        return Case("generate", lambda: call(argv), ok)

    def classify(self, set_expr, kind):
        argv = ["classify", "--set", set_expr]

        def ok(result):
            code, obj = _answer(result)
            return code == 0 and obj["classification"] == kind
        return Case("classify", lambda: call(argv), ok)

    def character(self, c, r=4):
        argv = ["--mu2", "0", "character", "--set", f"lbar>={c}", "--dual",
                "--window", str(r)]
        expected = {f"{s},{t}": v for (s, t), v in character(c, r).items()}

        def ok(result):
            code, obj = _answer(result)
            return code == 0 and obj["table"] == expected
        return Case("character", lambda: call(argv), ok, kind="text")

    # -- malformed requests: each must give exit 2 and an error JSON ---------

    def malformed(self):
        k, l, m = self._idx()
        good = json.dumps({"basis": "w", "terms": [{"k": k, "l": l, "m": m, "c": "1"}]})
        argvs = [
            ["act", "--gen", "e1", "--element", f"[{k}]"],
            ["act", "--gen", "e1", "--element",
             json.dumps({"terms": [{"k": k, "l": l, "m": m, "c": "1"}]})],
            ["act", "--basis", "w", "--gen", "e1", "--element",
             json.dumps({"terms": [{"k": k, "l": l, "m": m, "c": "1/0"}]})],
            ["change-basis", "--to", "u", "--element", good[: len(good) // 2]],
            ["classify", "--set", f"lbar>>{l}"],
            ["act", "--basis", "u", "--gen", "e1", "--element",
             json.dumps({"basis": "u", "terms": [{"k": k, "l": l, "m": -1 - m, "c": "1"}]})],
            ["pair", "--eta", json.dumps({"basis": "eta", "mu1": "1/3", "mu2": "1/5",
                                          "terms": k}), "--w", good],
        ]

        return [Case(f"malformed {argv[0]}", lambda argv=argv: call(argv), rejected,
                     kind="text") for argv in argvs]

    def round(self) -> list:
        cases = []
        cases += [self.gt_word() for _ in range(12)]
        cases += [self.cartan(basis, gen) for basis in ("u", "w", "eta")
                  for gen in ("h1", "h2", "h1", "h2")]
        cases += [self.lowering_u(gen) for gen in ("e1", "e12") * 8]
        for _ in range(6):
            cases += self.change_basis_pair(symbolic=False)
        for _ in range(2):
            cases += self.change_basis_pair(symbolic=True)
        cases += [self.pair() for _ in range(10)]
        cases += [self.hom(s) for s in HOM_STATEMENTS]
        cases += [self.generate() for _ in range(6)]
        cases += [self.classify(text, kind) for text, kind in NINE_SETS]
        cases += [self.character(c) for c in (0, 1, 0, 1)]
        cases += self.malformed()
        # shuffle whole requests, keeping each change-basis pair in order
        units, i = [], 0
        while i < len(cases):
            step = 2 if cases[i].name.startswith("change-basis") else 1
            units.append(cases[i:i + step])
            i += step
        self.rnd.shuffle(units)
        return [case for unit in units for case in unit]


def cli_requests(seed: int):
    return Mix(seed).round
