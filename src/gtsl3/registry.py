"""Data-driven registry of the structural checks.

Every published structural statement that the engine re-verifies lives here
as a named check returning a JSON-able report; the command line runs them
through ``verify-paper`` and the acceptance test suite asserts each one.
All checks are exact (zero tolerance) and draw nothing at random.  Most
verdicts are finite-window statements at the recorded window.  Each id maps
to one ``Check`` record of its windows, parameter point and claim fields;
``run_check`` builds every report from it, and refuses (``"verdict":
"refused"``, with the reason) a window outside the record's range.

The orbit checks -- ``brackets-u``, ``brackets-w``, ``brackets-eta``,
``brackets-symbolic`` (the three at once), ``oracle-equivalence``,
``basis-roundtrip`` and ``casimir`` -- read ``window`` as m_max and check
b_(0,0,m) over Q(mu1, mu2).  Every action and change-of-basis coefficient
reads k and l only through kbar = k - mu1 and lbar = l - mu2, so the action
on b_(k,l,m) is that on b_(0,0,m) under mu1 -> mu1 - k, mu2 -> mu2 - l,
shifted by (k, l): they hold for every (k, l), off mu1 + mu2 in Z, where
the w- and eta-bases are not defined.  For the actions this holds by
construction: a ``module.ACTION_TABLE`` coefficient reads only m and the
kbar and lbar of its ``Line``, and the eta action, read off the w-table at
call time, reads the w-coefficients on the lines next to its source.
``sections._twisted_derivative`` reads k and l only through k - mu1 and
l - mu2, so the lemma covers the sections too; ``oracle-equivalence`` ties
the u-table to their vector fields, derived from ``liealg``'s 3x3 matrices.

Degree in m: no denominator contains m and every coefficient has degree
<= 1 in m (``tests/test_module.py`` checks both on the table).  For m >= 2
no target of a two-generator word is dropped, so each coefficient of a
bracket defect, or of the Casimir minus its scalar, has degree <= 2 in m:
with m = 0, 1 checked directly and m = 2, 3, 4 settling the rest, those
hold for every m once m_max >= 4.  The oracle applies one generator: for
m >= 1 neither side drops a target and both have degree <= 1 in m, so
m = 0, 1, 2 settle every m; it reports every m from m_max >= 4 like the
brackets.  The roundtrip sums m + 1 terms, so it holds for m <= m_max only.

``simplicity-generic`` is an axis certificate at (1/3, 1/5), plain (w) and
dual (eta): from every window index each e-generator reaches the index one
step down its axis, and each f-generator the one a step up, wherever that
is in the window.  The window is a box, so these edges join all of it, and
by the eigenvalue separation in ``explore`` every vector generates it; this
covers the generic start that ``dual-cyclicity`` once ran.

``structure-constants`` checks the Jacobi identity, tau-compatibility and
the Cartan matrix on ``liealg.STRUCTURE``.  It does not compare STRUCTURE
with the bracket of the 3x3 matrices: STRUCTURE is built from that very
bracket, so the comparison could not fail; tau is X -> -D X^T D on the same
matrices, so its part holds by construction too.  ``tests/test_liealg.py``
keeps hand-typed brackets and tau against them.  ``brackets-eta`` cannot
fail where ``brackets-w`` (every m) and ``structure-constants`` pass: X acts
on eta as minus the transpose of tau(X) on w, read off the w-table when
called.  Both checks stay while ``perfbench/answers.py`` lists them.

``relaxed-verma`` generates the layers of cases 4 and 5 and solves their
self-duality on radius 3 whatever the window; its report names that radius
``layer_window``.

``closed-forms`` proves the families' equations over Q(mu1) at mu2 = 0, and
those of ``xabc`` over Q(mu1, mu2) on radius 2 whatever the window; its
report names that radius ``symbolic_window``.  Each coefficient and value
there is a quotient of products of factors mu1 + c, c in Z, so it
specializes at mu1 = 1/3, and a pass at (1/3, 0) would prove no more.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations, product
from typing import Callable, NamedTuple

from . import liealg, sections
from .errors import ObstructionAtIndex
from .explore import (
    LAYER_WINDOW,
    character_table,
    characters_agree,
    exact_sequence_check,
    generate,
    product_formula_character,
    relaxed_verma_check,
    split_eigencomponents,
)
from .hom import (
    ModuleDescriptor,
    family_solution,
    image_kernel,
    solve_by_recurrence,
    solve_intertwiner,
    verify_solution,
)
from .module import (
    AXIS_PAIRS,
    BASIS_ACTIONS,
    Box,
    ModuleElement,
    Params,
    act,
    casimir_apply,
    gt_eigenvalue,
    linear_combination,
    u_to_w,
    w_to_u,
)
from .scalars import MU1, MU2, RatFunc, scalar_as_fraction
from .subquotient import LBarSet, classify, lbar_coordinates

SYMBOLIC = (MU1, MU2)
GENERIC = (Fraction(1, 3), Fraction(1, 5))
INTEGRAL_MU2 = (Fraction(1, 3), Fraction(0))
COLLISION = (Fraction(1, 3), Fraction(2, 3))

SYMBOLIC_XABC_WINDOW = 2  # closed-forms proves xabc over Q(mu1, mu2) on this radius
OBSTRUCTION_WINDOW = 3  # obstruction runs the recurrence on this radius


# ---------------------------------------------------------------------------
# individual checks

def check_structure_constants():
    failures = []
    for x, y, z in product(liealg.GENERATORS, repeat=3):
        jac = liealg.lie_add(
            liealg.bracket({x: 1}, liealg.bracket({y: 1}, {z: 1})),
            liealg.lie_add(
                liealg.bracket({y: 1}, liealg.bracket({z: 1}, {x: 1})),
                liealg.bracket({z: 1}, liealg.bracket({x: 1}, {y: 1})),
            ),
        )
        if jac:
            failures.append(("jacobi", x, y, z))
    for a, b in product(liealg.GENERATORS, repeat=2):
        lhs = liealg.tau(liealg.bracket({a: 1}, {b: 1}))
        if lhs != liealg.bracket(liealg.tau(a), liealg.tau(b)):
            failures.append(("tau", a, b))
    if (liealg.ALPHA1, liealg.ALPHA2) != ((2, -1), (-1, 2)):
        failures.append(("cartan", liealg.ALPHA1, liealg.ALPHA2))
    return not failures, failures[:5]


def _bracket_compat(elements):
    """Witnesses (x, y, support of v), in that order, where
    [x, y] v != x(y v) - y(x v).  Each identity is checked once per
    unordered pair x < y (in ``liealg.GENERATORS`` order): the (y, x) one is
    the (x, y) one negated, since ``liealg.STRUCTURE`` is the matrix
    commutator, which ``tests/test_liealg.py`` pins against hand-typed
    matrices, and the x = y one holds trivially.  A failing pair is reported
    in both orders.  Each X v is computed once, X(Y v) once per ordered
    pair with x != y, and only one element's actions are held at a time."""
    gens = liealg.GENERATORS
    brackets = liealg.STRUCTURE  # [x, y] for every ordered pair, in gens order
    failing = []
    for v in elements:
        xv = {g: act(g, v) for g in gens}
        xyv = {(x, y): act(x, xv[y]) for x in gens for y in gens if x != y}
        fails = set()
        for x, y in combinations(gens, 2):
            lhs = linear_combination(v, ((c, xv[g]) for g, c in brackets[x, y].items()))
            if lhs != xyv[x, y] - xyv[y, x]:
                fails.update(((x, y), (y, x)))
        failing.append(fails)
    return [(x, y, v.support()) for x, y in brackets
            for v, fails in zip(elements, failing) if (x, y) in fails]


def _orbit_vectors(basis, params, m_max):
    """The orbit representatives b_(0,0,m), m <= m_max."""
    return [ModuleElement(params, basis, {(0, 0, m): 1}) for m in range(m_max + 1)]


def check_brackets(bases, params, window):
    bad = [w for b in bases for w in _bracket_compat(_orbit_vectors(b, params, window))]
    return not bad, bad[:5]


def check_oracle_equivalence(params, window):
    bad = [(gen, v.support()) for v in _orbit_vectors("u", params, window)
           for gen in liealg.GENERATORS if sections.act_section(gen, v) != act(gen, v)]
    return not bad, bad[:5]


def check_basis_roundtrip(params, window):
    bad = [(basis, v.support()[0])
           for basis, there, back in (("w", w_to_u, u_to_w), ("u", u_to_w, w_to_u))
           for v in _orbit_vectors(basis, params, window) if back(there(v)) != v]
    return not bad, bad[:5]


def check_gt_injectivity(params, window):
    seen = {}
    collisions = []
    for idx in Box.radius(window):
        key = gt_eigenvalue(idx, params)
        if key in seen:
            collisions.append((seen[key], idx))
        seen[key] = idx
    return not collisions, collisions[:5]


def check_lemma_collision(params):
    a, b = (0, 0, 3), (2, 2, 1)
    generic = Params(*GENERIC)
    collide = gt_eigenvalue(a, params) == gt_eigenvalue(b, params)
    distinct_generic = gt_eigenvalue(a, generic) != gt_eigenvalue(b, generic)
    return collide and distinct_generic, [(a, b)]


def check_simplicity_generic(params, window):
    box = Box.radius(window)
    bad = []  # (descriptor, index, generator) missing its axis neighbour
    for dual in (False, True):
        desc = ModuleDescriptor(params, dual=dual)
        action = BASIS_ACTIONS[desc.basis]  # the descriptor has no J
        for idx in box:
            for axis, pair in enumerate(AXIS_PAIRS):
                for gen, step in zip(pair, (-1, 1)):
                    nxt = tuple(c + step * (i == axis) for i, c in enumerate(idx))
                    if box.contains(nxt) and not action(gen, params, idx, nxt.__eq__):
                        bad.append((desc.describe(), idx, gen))
    return not bad, bad[:5]


# the nine lbar-sets named by the structure theory, with expected kinds
NINE_SETS = [
    (LBarSet.ge(0), "submodule"),
    (LBarSet.eq(0), "submodule"),
    (LBarSet.between(0, 1), "submodule"),
    (LBarSet.le(1), "submodule"),
    (LBarSet.le(0), "submodule"),
    (LBarSet.ge(1), "quotient"),
    (LBarSet.ge(2), "quotient"),
    (LBarSet.le(-1), "quotient"),
    (LBarSet.eq(1), "subquotient"),
]


def check_closure_integral(params, window):
    t0 = params.mu2_int()
    full = ModuleDescriptor(params, dual=False)
    box = full.window(window)
    # the lbar levels the full module reaches from (0, mu2 + lv, 1)
    reached = {lv: {lbar_coordinates(i, params)[1]
                    for i in generate([(0, t0 + lv, 1)], full, box).reached}
               for lv in range(-window, window + 1)}
    bad = []
    for J, expected in NINE_SETS:
        kind = classify(J, box, params)
        verdict = kind == "submodule"  # classify decides J's closure first
        if kind != expected:
            bad.append((repr(J), "classified", kind, "expected", expected))
        # BFS containment must agree with closure on the window
        for lv in [lv for lv in reached if J.contains(lv)][:3]:
            stays = all(J.contains(level) for level in reached[lv])
            if stays != verdict:
                bad.append((repr(J), "bfs-vs-closure", (0, t0 + lv, 1), stays, verdict))
    return not bad, bad[:6]


def check_dual_cyclicity(params, window):
    dual = ModuleDescriptor(params, dual=True)
    box = dual.window(window)
    bad = []
    for k0 in (-2, 0, 2):
        cert = generate([(k0, params.mu2_int(), 0)], dual, box)
        if not cert.covers:
            bad.append((k0, cert.missing[:3]))
    return not bad, bad


# the six Hom statements: (source-J, source-dual, target-dual,
#                          expected image, expected kernel)
HOM_STATEMENTS = [
    ("l01 dual->plain", LBarSet.between(0, 1), True, False,
     LBarSet.eq(0), LBarSet.eq(1)),
    ("l01 plain->dual", LBarSet.between(0, 1), False, True,
     LBarSet.eq(1), LBarSet.eq(0)),
    ("ge1 dual->plain", LBarSet.ge(1), True, False,
     LBarSet.eq(1), LBarSet.ge(2)),
    ("ge1 plain->dual", LBarSet.ge(1), False, True,
     LBarSet.ge(2), LBarSet.eq(1)),
    ("ge0 dual->plain", LBarSet.ge(0), True, False,
     LBarSet.eq(0), LBarSet.ge(1)),
    ("ge0 plain->dual", LBarSet.ge(0), False, True,
     LBarSet.ge(2), LBarSet.between(0, 1)),
]


def check_hom_dims(params, window):
    """The six statements at params, then the full self-duality at GENERIC."""
    bad = []
    for name, J, sdual, tdual, exp_img, exp_ker in HOM_STATEMENTS:
        src = ModuleDescriptor(params, dual=sdual, J=J)
        tgt = ModuleDescriptor(params, dual=tdual, J=J)
        box = src.window(window)
        sols = solve_intertwiner(src, tgt, box)
        if len(sols) != 1:
            bad.append((name, "dimension", len(sols)))
            continue
        img, ker = image_kernel(sols[0])
        if img != exp_img or ker != exp_ker:
            bad.append((name, "image/kernel", repr(img), repr(ker)))
    generic = Params(*GENERIC)
    src = ModuleDescriptor(generic, dual=True)
    tgt = ModuleDescriptor(generic, dual=False)
    sols = solve_intertwiner(src, tgt, Box.radius(window))
    if len(sols) != 1:
        bad.append(("full self-duality", "dimension", len(sols)))
    return not bad, bad


# (family, J, source-dual, target-dual), each solved over Q(mu1) at mu2 = 0
CLOSED_FORM_PROBLEMS = [
    ("l01_phi", LBarSet.between(0, 1), True, False),
    ("l01_psi", LBarSet.between(0, 1), False, True),
    ("lge2", LBarSet.ge(1), False, True),
    ("lge2", LBarSet.ge(0), False, True),
    ("lle_minus1", LBarSet.le(-1), False, True),
]


def check_closed_forms(window):
    """Each closed-form family satisfies every in-window equation with mu1
    symbolic and mu2 = 0; the full-module family ``xabc`` over Q(mu1, mu2),
    and at (1/3, 1/5) it equals the recurrence from (0, 0, 0)."""
    bad = []
    sym0 = Params(MU1, RatFunc(0))  # mu1 symbolic, mu2 = 0 exactly
    for name, J, sdual, tdual in CLOSED_FORM_PROBLEMS:
        src = ModuleDescriptor(sym0, dual=sdual, J=J)
        tgt = ModuleDescriptor(sym0, dual=tdual, J=J)
        viol = verify_solution(family_solution(name, src, tgt, src.window(window)))
        if viol:
            bad.append((name, repr(J), "symbolic", len(viol)))
    # the full-module family, fully symbolic and against the recurrence
    for params in (Params(*SYMBOLIC), Params(*GENERIC)):
        src = ModuleDescriptor(params, dual=True)
        tgt = ModuleDescriptor(params, dual=False)
        box = Box.radius(SYMBOLIC_XABC_WINDOW if params.is_symbolic else window)
        fam = family_solution("xabc", src, tgt, box)
        viol = verify_solution(fam)
        if viol:
            bad.append(("xabc", "full", "symbolic" if params.is_symbolic else
                        "specialized", len(viol)))
        if not params.is_symbolic:
            rec = solve_by_recurrence(src, tgt, (0, 0, 0), Fraction(1), box)
            if any(rec.value(i) != fam.value(i) for i in src.indices(box)):
                bad.append(("xabc", "recurrence-mismatch"))
    return not bad, bad


def check_obstruction():
    # (case, params, generator, axis): the generator's comparison blocks
    # crossing the wall lbar = 0 (axis 1) or kbar = 0 (axis 0)
    walls = [
        ("mu2 integral", Params(*INTEGRAL_MU2), "e2", 1),
        ("mu1 integral", Params(Fraction(0), Fraction(1, 5)), "e1", 0),
    ]
    bad = []
    for case, params, gen, axis in walls:
        src = ModuleDescriptor(params, dual=False)
        tgt = ModuleDescriptor(params, dual=True)
        try:
            solve_by_recurrence(src, tgt, (0, 0, 0), Fraction(1),
                                Box.radius(OBSTRUCTION_WINDOW))
            bad.append((case, "no obstruction raised"))
        except ObstructionAtIndex as e:
            coordinate = (params.kbar, params.lbar)[axis]
            if e.generator != gen or coordinate(e.index[axis]) != 0:
                bad.append((case, "wrong obstruction", str(e)))
    return not bad, bad


def check_relaxed_verma(params, window):
    reports = [relaxed_verma_check(case, params, r=window) for case in (1, 2, 3, 4, 5)]
    bad = [r["case"] for r in reports if r["verdict"] != "pass"]
    return not bad, bad, {"cases": reports}


def check_casimir(params, window):
    """The quadratic Casimir acts by one rational constant, reported as the
    scalar, on every u- and w-basis b_(0,0,m), m <= window, over Q(mu1, mu2).
    The scalar is null unless every vector is diagonal with that one value."""
    bad, values = [], set()
    for basis in ("u", "w"):
        for v in _orbit_vectors(basis, params, window):
            (idx,) = v.terms
            out = casimir_apply(v)
            if set(out.terms) - {idx}:
                bad.append((basis, idx, "not diagonal"))
            else:
                values.add(scalar_as_fraction(out.terms.get(idx, 0)))
    if len(values) != 1 or None in values:  # None: a non-constant value
        bad.append(("values", sorted(map(str, values))))
    return not bad, bad[:5], {"scalar": None if bad else str(values.pop())}


def check_exact_sequence(params, window):
    rep = exact_sequence_check(params, r=window)
    return rep["verdict"] == "pass", rep["witnesses"][:3], {"checks": rep["checks"]}


def check_eigensplit(params):
    v = ModuleElement(params, "w", {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(2)})
    comps, sep = split_eigencomponents(v)
    ok = len(comps) == 2 and sep == (1, 0, 0)
    single = ModuleElement(params, "w", {(0, 0, 0): Fraction(3)})
    comps2, _ = split_eigencomponents(single)
    ok = ok and len(comps2) == 1 and comps2[0][1] == single
    return ok, []


def check_character_formula(params, window):
    desc = ModuleDescriptor(params, dual=True, J=LBarSet.ge(0))
    lhs = character_table(desc, window)
    rhs = product_formula_character((0, 0), window)
    bad = characters_agree(lhs, rhs, window)
    return not bad, bad[:5]


# ---------------------------------------------------------------------------
# the records

class Check(NamedTuple):
    """One registered check.  ``run`` takes ``params`` and ``window`` by
    keyword, where the record sets them, and returns whether the check passed,
    its witnesses and, for some checks, a dict of fields of their own."""

    run: Callable
    window: int | None = None  # the default window; None: --window is ignored
    least: int = 0  # the least window that decides the check
    most: int | None = None  # the most window it runs in a few seconds
    params: tuple | None = None  # the (mu1, mu2) the check runs at and reports
    claim: tuple = ()  # (key, value) claim fields every report of the check carries
    orbit: str | None = None  # orbit checks: their claim on m, "every m" or "m <= m_max"


CHECKS = {
    "structure-constants": Check(check_structure_constants),
    "brackets-u": Check(partial(check_brackets, ("u",)), 4, params=SYMBOLIC,
                        orbit="every m"),
    "brackets-w": Check(partial(check_brackets, ("w",)), 4, params=SYMBOLIC,
                        orbit="every m"),
    "brackets-eta": Check(partial(check_brackets, ("eta",)), 4, params=SYMBOLIC,
                          orbit="every m"),
    "brackets-symbolic": Check(partial(check_brackets, ("u", "w", "eta")), 4,
                               params=SYMBOLIC, orbit="every m"),
    "oracle-equivalence": Check(check_oracle_equivalence, 4, params=SYMBOLIC,
                                orbit="every m"),
    "basis-roundtrip": Check(check_basis_roundtrip, 5, most=9, params=SYMBOLIC,
                             orbit="m <= m_max"),
    "gt-injectivity": Check(check_gt_injectivity, 5, params=GENERIC),
    "lemma-collision": Check(check_lemma_collision, params=COLLISION),
    "eigensplit": Check(check_eigensplit, params=GENERIC),
    "simplicity-generic": Check(check_simplicity_generic, 3, params=GENERIC),
    "closure-integral": Check(check_closure_integral, 3, least=2, params=INTEGRAL_MU2),
    "dual-cyclicity": Check(check_dual_cyclicity, 3, least=2, params=INTEGRAL_MU2),
    "hom-dims": Check(check_hom_dims, 4, least=2, params=INTEGRAL_MU2,
                      claim=(("statements", len(HOM_STATEMENTS) + 1),)),
    # the five closed-form problems assemble no equation at window 0
    "closed-forms": Check(check_closed_forms, 3, least=1, most=7,
                          claim=(("symbolic_window", SYMBOLIC_XABC_WINDOW),)),
    "obstruction": Check(check_obstruction, claim=(("window", OBSTRUCTION_WINDOW),)),
    "relaxed-verma": Check(check_relaxed_verma, 6, params=INTEGRAL_MU2,
                           claim=(("layer_window", LAYER_WINDOW),)),
    "character-formula": Check(check_character_formula, 6, params=INTEGRAL_MU2),
    "casimir": Check(check_casimir, 4, params=SYMBOLIC, orbit="every m"),
    "exact-sequence": Check(check_exact_sequence, 3, least=1, params=INTEGRAL_MU2),
}


def run_check(name: str, window: int | None = None) -> dict:
    """The report of check `name` at `window`, by default the record's, or a
    refused one if the window lies outside the record's range."""
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
    rec = CHECKS[name]
    rep, kwargs = {"check": name}, {}
    if rec.window is not None:
        window = kwargs["window"] = rec.window if window is None else window
        too_big = rec.most is not None and window > rec.most
        if window < rec.least or too_big:
            bound = f"at most {rec.most}" if too_big else f"at least {rec.least}"
            return {**rep, "verdict": "refused", "window": window,
                    "reason": f"{name} needs a window of {bound}, not {window}"}
        if rec.orbit is None:
            rep["window"] = window
        else:
            rep.update({"k, l": "all", "m_max": window, "where": "mu1 + mu2 not in Z"})
            if rec.orbit == "every m" and window >= 4:  # by the docstring's degree bound
                rep["m"] = "all"
    if rec.params is not None:
        kwargs["params"] = Params(*rec.params)
        rep["params"] = {"mu1": str(rec.params[0]), "mu2": str(rec.params[1])}
    passed, witnesses, *extra = rec.run(**kwargs)
    rep.update(rec.claim, verdict="pass" if passed else "fail", witnesses=witnesses)
    rep.update(*extra)
    return rep
