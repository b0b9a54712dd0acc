"""Per-layer tracing from the benchmark's side of the engine's API.

The tracer replaces each traced public function of ``gtsl3`` wherever it is
bound: in its defining module and in every other ``gtsl3`` module that
imported it by name.  Each call through a wrapper records a span (layer
function, start, end, parent span).  Two hot paths are counted instead of
spanned, because they run millions of times: the eta-basis entry of
``BASIS_ACTIONS`` and the arithmetic methods of ``RatFunc``.

Self time of a span is its duration minus the durations of its child
spans.  A function's total time counts only its outermost spans, so a
recursive or nested call is not counted twice.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

# functions that get spans, named <module>.<function>
SPANNED = (
    "liealg.casimir_word",
    "module.act",
    "module.casimir_apply",
    "module.w_to_u",
    "module.u_to_w",
    "sections.act_section",
    "hom.intertwiner_equations",
    "hom.solve_intertwiner",
    "hom.solve_by_recurrence",
    "hom.verify_solution",
    "hom.family_solution",
    "solver.nullspace",
    "explore.generate",
    "explore.character_table",
    "explore.relaxed_verma_check",
    "subquotient.is_closed",
    "subquotient.classify",
    "subquotient.act_truncated",
    "serialize.element_from_json",
    "serialize.element_to_json",
    "cli.main",
)

# RatFunc methods counted as scalar operations; __eq__ is counted apart
RATFUNC_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)

# operand-size buckets of the multiplication cost curve: an operand of n
# terms (numerator plus denominator) falls in the first bucket >= n
MUL_BUCKETS = (2, 4, 8, 16, 32, 64, 128, 256, 512)


def _terms(x) -> int:
    num = getattr(x, "num", None)
    if num is None:
        return 1
    return len(num.terms) + len(x.den.terms)


def _bucket(n: int) -> int:
    for b in MUL_BUCKETS:
        if n <= b:
            return b
    return MUL_BUCKETS[-1]


class Tracer:
    """Installs wrappers on entry to the ``with`` block, removes them on exit."""

    def __init__(self):
        self.names = list(SPANNED)
        # one entry per span, indexed by span id
        self.parent = array("q")
        self.code = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = Counter()
        self.mul_time = defaultdict(float)
        self.mul_calls = Counter()
        self.scalar_s = 0.0
        self.max_terms = 0
        self._in_scalar = False
        self._undo = []

    # -- installation ----------------------------------------------------

    def __enter__(self):
        from gtsl3 import module
        from gtsl3.scalars import RatFunc

        # import every layer first, so that every from-import binding exists
        layers = [name.split(".") for name in self.names]
        for layer, _ in layers:
            importlib.import_module(f"gtsl3.{layer}")
        for code, (layer, func) in enumerate(layers):
            original = getattr(sys.modules[f"gtsl3.{layer}"], func)
            self._rebind(original, self._spanned(code, original))
        eta = module.BASIS_ACTIONS["eta"]
        self._rebind(eta, self._counted("dual.eta_action_calls", eta))
        for op in RATFUNC_OPS + ("__eq__",):
            original = vars(RatFunc)[op]
            self._undo.append((RatFunc, op, original))
            setattr(RatFunc, op, self._scalar(op, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _rebind(self, original, wrapper):
        """Replace every binding of ``original`` in the gtsl3 modules and
        in the ``BASIS_ACTIONS`` table."""
        from gtsl3 import module

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gtsl3" and not mod_name.startswith("gtsl3."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for key, value in list(module.BASIS_ACTIONS.items()):
            if value is original:
                self._undo.append((module.BASIS_ACTIONS, key, original))
                module.BASIS_ACTIONS[key] = wrapper

    # -- wrappers --------------------------------------------------------

    def _spanned(self, code, fn):
        clock = time.perf_counter
        parent, codes, start, end, stack = (
            self.parent, self.code, self.start, self.end, self._stack)
        after = self._count_equations if fn.__name__ == "intertwiner_equations" else None

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            codes.append(code)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_equations(self, out):
        indices, rows = out
        self.counts["hom.unknowns"] += len(indices)
        self.counts["hom.equations"] += len(rows)

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _scalar(self, op, fn):
        clock = time.perf_counter
        counter = "scalars.ratfunc_eq" if op == "__eq__" else "scalars.ratfunc_ops"
        is_mul = op in ("__mul__", "__rmul__")

        def scalar(*args):
            if self._in_scalar:  # an operation nested in another one
                return fn(*args)
            self._in_scalar = True
            t0 = clock()
            try:
                out = fn(*args)
            finally:
                dt = clock() - t0
                self._in_scalar = False
            self.scalar_s += dt
            self.counts[counter] += 1
            if out is not NotImplemented and not isinstance(out, bool):
                self.max_terms = max(self.max_terms, _terms(out))
            if is_mul:
                b = _bucket(max(_terms(args[0]), _terms(args[1])))
                self.mul_time[b] += dt
                self.mul_calls[b] += 1
            return out

        scalar.__wrapped__ = fn
        return scalar

    # -- results ---------------------------------------------------------

    def layer_times(self):
        """{name: (calls, total seconds of outermost spans, self seconds)}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for i in range(n):
            code = self.code[i]
            d = self.end[i] - self.start[i]
            calls[code] += 1
            own[code] += d - child[i]
            p = self.parent[i]
            while p >= 0 and self.code[p] != code:
                p = self.parent[p]
            if p < 0:
                total[code] += d
        return {
            name: (calls[c], total[c], own[c]) for c, name in enumerate(self.names)
        }

    def metrics(self) -> dict:
        """Per-layer metrics measured by wrappers, as {name: (value, unit)}."""
        times = self.layer_times()
        out = {}
        for name, (calls, total, own) in times.items():
            if name == "cli.main":
                out["cli.main_s"] = (own, "s")  # self time: parsing and printing
            else:
                out[f"{name}_s"] = (total, "s")
        out["liealg.casimir_word_calls"] = (times["liealg.casimir_word"][0], "count")
        out["module.act_calls"] = (times["module.act"][0], "count")
        for name in ("dual.eta_action_calls", "hom.equations", "hom.unknowns",
                     "scalars.ratfunc_ops", "scalars.ratfunc_eq"):
            out[name] = (self.counts[name], "count")
        out["scalars.max_terms"] = (self.max_terms, "count")
        out["scalars.self_s"] = (self.scalar_s, "s")
        for b in MUL_BUCKETS:
            calls = self.mul_calls[b]
            out[f"scalars.mul_s.t{b}"] = (self.mul_time[b] / calls if calls else 0.0, "s")
        return out
