"""The batch workloads: verify-paper, window-sweep and symbolic-sweep.

Each builder returns a function giving the case list of one pass.  Engine
functions are looked up on their module at call time, so a traced run sees
every call through the tracer's wrappers.
"""

from __future__ import annotations

import random
from fractions import Fraction

from answers import (
    CASIMIR_SCALAR,
    CHECK_IDS,
    EMPTY,
    EQ0,
    EQ1,
    GENERIC,
    HOM_STATEMENTS,
    INTEGRAL_MU2,
    NINE_SETS,
    character,
    terms_at,
    window_size,
)
from harness import Case

from gtsl3 import explore, hom, liealg, module, registry, serialize, subquotient
from gtsl3.hom import ModuleDescriptor
from gtsl3.module import Box, ModuleElement, Params
from gtsl3.scalars import MU1, RatFunc


def verify_paper(seed: int):
    """All registered checks at their pinned windows, one thread."""

    def check(cid):
        def ok(report):
            if report["check"] != cid or report["verdict"] != "pass":
                return False
            return cid != "casimir" or report["scalar"] == CASIMIR_SCALAR
        return ok

    cases = [
        Case(cid, lambda cid=cid: registry.run_check(cid), check(cid),
             curve=f"registry.{cid}_s")
        for cid in CHECK_IDS
    ]
    return lambda: cases


def _one_solution(image=None, kernel=None):
    """Check: a one-dimensional Hom space with the given image and kernel."""
    def ok(sols):
        if len(sols) != 1:
            return False
        if image is None:
            return True
        img, ker = hom.image_kernel(sols[0])
        return img.intervals == image and ker.intervals == kernel
    return ok


def _hom_case(name, params, set_expr, sdual, tdual, r, image, kernel, curve=None):
    J = serialize.parse_set_expr(set_expr)
    src = ModuleDescriptor(params, dual=sdual, J=J)
    tgt = ModuleDescriptor(params, dual=tdual, J=J)
    box = src.window(r)
    return Case(f"{name} r={r}", lambda: hom.solve_intertwiner(src, tgt, box),
                _one_solution(image, kernel), curve=curve)


def _ratios(x: dict) -> dict:
    """An intertwiner normalized to 1 at the origin."""
    pivot = x[(0, 0, 0)]
    return {i: v / pivot for i, v in x.items()}


def _roundtrip_case(params, idx, curve, exact):
    w = ModuleElement(params, "w", {idx: Fraction(1)})

    def ok(out):
        if set(out.terms) != {idx}:
            return False
        if exact:
            return out.terms[idx] == 1
        return terms_at(out) == {idx: 1}

    return Case(f"roundtrip {idx}", lambda: module.u_to_w(module.w_to_u(w)), ok,
                curve=curve)


def window_sweep(seed: int):
    """Specialized parameters only: Hom solving, recurrences, generation,
    classification and characters as the window radius grows."""
    generic = Params(*GENERIC)
    integral = Params(*INTEGRAL_MU2)
    full_src = ModuleDescriptor(generic, dual=True)
    full_tgt = ModuleDescriptor(generic, dual=False)
    solver_line, recurrence_line = {}, {}
    cases = []

    def solve_full(r):
        sols = hom.solve_intertwiner(full_src, full_tgt, Box.radius(r))
        if len(sols) == 1:
            solver_line[r] = _ratios(sols[0].x)
        return sols

    def recurrence_matches(r):
        def ok(sol):
            ratios = recurrence_line[r] = _ratios(sol.x)
            if ratios[(0, 0, 0)] != 1 or len(ratios) != window_size(r):
                return False
            # the solver's line at the same radius, or the recurrence itself
            # one radius lower, where the solver is not run
            ref = solver_line.get(r) or recurrence_line.get(r - 1)
            return ref is not None and all(ratios[i] == v for i, v in ref.items())
        return ok

    for r in range(2, 9):
        if r <= 6:
            cases.append(Case(f"full self-duality solve r={r}",
                              lambda r=r: solve_full(r), _one_solution(),
                              curve=f"hom.solve_s.r{r}"))
        cases.append(Case(
            f"full self-duality recurrence r={r}",
            lambda r=r: hom.solve_by_recurrence(full_src, full_tgt, (0, 0, 0),
                                                Fraction(1), Box.radius(r)),
            recurrence_matches(r), curve=f"hom.recurrence_s.r{r}"))
    for r in range(3, 7):
        for name, set_expr, sdual, tdual, image, kernel in HOM_STATEMENTS:
            cases.append(_hom_case(name, integral, set_expr, sdual, tdual, r,
                                   image, kernel))
    for r in range(2, 9):
        box = Box.radius(r)
        cases.append(Case(
            f"generate r={r}",
            lambda box=box: explore.generate([(0, 0, 0)], full_tgt, box),
            lambda cert, r=r: cert.covers and len(cert.reached) == window_size(r),
            curve=f"explore.generate_s.r{r}"))
    sets = [(serialize.parse_set_expr(text), kind) for text, kind in NINE_SETS]
    for r in range(3, 8):
        box = Box.radius(r, 0)
        cases.append(Case(
            f"classify nine sets r={r}",
            lambda box=box: [subquotient.classify(J, box, integral) for J, _ in sets],
            lambda kinds: kinds == [kind for _, kind in sets],
            curve=f"subquotient.classify_s.r{r}"))
    ge0 = serialize.parse_set_expr("lbar>=0")
    for dual in (True, False):
        desc = ModuleDescriptor(integral, dual=dual, J=ge0)
        cases.append(Case(
            f"character lbar>=0 dual={dual}",
            lambda desc=desc: explore.character_table(desc, 6),
            lambda table: all(table.get(k, 0) == v for k, v in character(0, 6).items())))
    for m in range(9):
        cases.append(_roundtrip_case(generic, (1, 2, m), f"module.roundtrip_spec_s.m{m}",
                                     exact=True))
    return lambda: cases


def _random_element(rnd, params, basis):
    """Two terms at random indices with |k|, |l| <= 3 and m <= 3."""
    terms = {}
    while len(terms) < 2:
        idx = (rnd.randint(-3, 3), rnd.randint(-3, 3), rnd.randint(0, 3))
        terms[idx] = Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 9), rnd.randint(1, 5))
    return ModuleElement(params, basis, terms)


def _brackets_case(params, basis, element):
    def run():
        pairs = []
        for x in liealg.GENERATORS:
            for y in liealg.GENERATORS:
                bxy = liealg.bracket({x: 1}, {y: 1})
                lhs = module.act_lie(bxy, element)
                rhs = module.act(x, module.act(y, element)) - module.act(
                    y, module.act(x, element))
                pairs.append((lhs, rhs))
        return pairs

    return Case(f"brackets {basis}", run,
                lambda pairs: all(terms_at(a) == terms_at(b) for a, b in pairs))


def symbolic_sweep(seed: int):
    """Work over Q(mu1, mu2): change of basis, bracket compatibility,
    closed-form families and symbolic Hom solving."""
    rnd = random.Random(seed)
    sym = Params.symbolic()
    sym0 = Params(MU1, RatFunc(0))  # mu1 symbolic, mu2 = 0 exactly
    cases = []
    for m in range(9):
        cases.append(_roundtrip_case(sym, (1, 2, m), f"module.roundtrip_sym_s.m{m}",
                                     exact=False))
    for basis in ("u", "w", "eta"):
        cases.append(_brackets_case(sym, basis, _random_element(rnd, sym, basis)))
    families = (
        ("l01_phi", "l01", True, False, 3, sym0),
        ("l01_psi", "l01", False, True, 3, sym0),
        ("lge2", "lbar>=1", False, True, 3, sym0),
        ("lge2", "lbar>=0", False, True, 3, sym0),
        ("lle_minus1", "lbar<=-1", False, True, 3, sym0),
        ("xabc", "full", True, False, 2, sym),
    )
    for name, set_expr, sdual, tdual, r, params in families:
        J = serialize.parse_set_expr(set_expr)
        src = ModuleDescriptor(params, dual=sdual, J=J)
        tgt = ModuleDescriptor(params, dual=tdual, J=J)
        box = src.window(r)
        cases.append(Case(
            f"family {name} {set_expr} r={r}",
            lambda src=src, tgt=tgt, box=box, name=name: hom.verify_solution(
                hom.family_solution(name, src, tgt, box)),
            lambda violated: violated == []))
    # decided today at r = 1; the same problems at r = 2 and the fully
    # symbolic full self-duality at r = 1 do not finish within the limit
    hom_cases = (
        ("l01-dual-plain", "l01", True, False, 1, EQ0, EQ1),
        ("l01-plain-dual", "l01", False, True, 1, EQ1, EQ0),
        ("eq0-dual-plain", "lbar=0", True, False, 1, EQ0, EMPTY),
        ("eq0-plain-dual", "lbar=0", False, True, 1, EQ0, EMPTY),
        ("l01-dual-plain", "l01", True, False, 2, EQ0, EQ1),
        ("eq0-dual-plain", "lbar=0", True, False, 2, EQ0, EMPTY),
    )
    for name, set_expr, sdual, tdual, r, image, kernel in hom_cases:
        cases.append(_hom_case(f"symbolic {name}", sym0, set_expr, sdual, tdual, r,
                               image, kernel))
    cases.append(_hom_case("symbolic full-dual-plain", sym, "full", True, False, 1,
                           None, None))
    return lambda: cases
