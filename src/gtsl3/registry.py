"""Data-driven registry of the structural checks.

Every published structural statement that the engine re-verifies lives here
as a named check returning a JSON-able report; the command line runs them
through ``verify-paper`` and the acceptance test suite asserts each one.
All checks are exact (zero tolerance) and draw nothing at random.  Most
verdicts are finite-window statements at the recorded window.  A check
reports ``"verdict": "refused"``, with the reason, on a window too small to
decide it: below 2 for ``closure-integral``, ``dual-cyclicity`` and
``hom-dims``, below 1 for ``exact-sequence`` and ``closed-forms`` (whose
problems have no equation at 0).

The orbit checks -- ``brackets-u``, ``brackets-w``, ``brackets-eta``,
``brackets-symbolic`` (the three at once), ``oracle-equivalence``,
``basis-roundtrip`` and ``casimir`` -- read ``window`` as m_max and check
b_(0,0,m) over Q(mu1, mu2).  Every action and change-of-basis coefficient
reads k and l only through kbar = k - mu1 and lbar = l - mu2, so the action
on b_(k,l,m) is that on b_(0,0,m) under mu1 -> mu1 - k, mu2 -> mu2 - l,
shifted by (k, l): they hold for every (k, l), off mu1 + mu2 in Z, where
the w- and eta-bases are not defined.  For the actions this holds by
construction: a coefficient of ``module.ACTION_TABLE`` receives only kbar,
lbar and m.  ``sections._twisted_derivative`` reads k and l only through
k - mu1 and l - mu2, so the lemma covers the sections too.

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

``closed-forms`` proves the families' equations over Q(mu1) at mu2 = 0, and
those of ``xabc`` over Q(mu1, mu2).  Each coefficient and value there is a
quotient of products of factors mu1 + c, c in Z, so it specializes at
mu1 = 1/3, and a pass at (1/3, 0) would prove no more.
"""

from __future__ import annotations

from fractions import Fraction

from . import liealg, sections
from .errors import ObstructionAtIndex
from .explore import (
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
    Box,
    ModuleElement,
    Params,
    act,
    casimir_apply,
    gt_eigenvalue,
    u_to_w,
    w_to_u,
)
from .scalars import MU1, RatFunc, scalar_as_fraction
from .subquotient import LBarSet, is_closed, classify

GENERIC = (Fraction(1, 3), Fraction(1, 5))
INTEGRAL_MU2 = (Fraction(1, 3), Fraction(0))
COLLISION = (Fraction(1, 3), Fraction(2, 3))

# the least window that decides a check, where it is above 0
LEAST_WINDOW = {"closure-integral": 2, "dual-cyclicity": 2, "hom-dims": 2,
                "exact-sequence": 1, "closed-forms": 1}


def _report(check, verdict, params=None, window=None, **extra):
    rep = {"check": check, "verdict": "pass" if verdict else "fail"}
    if params is not None:
        rep["params"] = {"mu1": str(params.mu1), "mu2": str(params.mu2)}
    if window is not None:
        rep["window"] = window
    rep["witnesses"] = extra.pop("witnesses", [])
    rep.update(extra)
    return rep


# ---------------------------------------------------------------------------
# individual checks

def check_structure_constants(**_):
    failures = []
    for x in liealg.GENERATORS:
        for y in liealg.GENERATORS:
            table = liealg.STRUCTURE[(x, y)]
            oracle = liealg.decompose(
                liealg.mat_bracket(liealg.matrix_oracle(x), liealg.matrix_oracle(y))
            )
            if table != oracle:
                failures.append(("pair", x, y))
    for x in liealg.GENERATORS:
        for y in liealg.GENERATORS:
            for z in liealg.GENERATORS:
                jac = liealg.lie_add(
                    liealg.bracket({x: 1}, liealg.bracket({y: 1}, {z: 1})),
                    liealg.lie_add(
                        liealg.bracket({y: 1}, liealg.bracket({z: 1}, {x: 1})),
                        liealg.bracket({z: 1}, liealg.bracket({x: 1}, {y: 1})),
                    ),
                )
                if jac:
                    failures.append(("jacobi", x, y, z))
    for a in liealg.GENERATORS:
        for b in liealg.GENERATORS:
            lhs = liealg.tau(liealg.bracket({a: 1}, {b: 1}))
            rhs = liealg.bracket(liealg.tau(a), liealg.tau(b))
            if lhs != rhs:
                failures.append(("tau", a, b))
    cartan_ok = liealg.ALPHA1 == (2, -1) and liealg.ALPHA2 == (-1, 2)
    if not cartan_ok:
        failures.append(("cartan", liealg.ALPHA1, liealg.ALPHA2))
    return _report("structure-constants", not failures, witnesses=failures[:5])


def _bracket_compat(elements):
    """Witnesses (x, y, support of v), in that order, where
    [x, y] v != x(y v) - y(x v).  Each X v and X(Y v) is computed once, and
    only one element's actions are held at a time."""
    gens = liealg.GENERATORS
    brackets = {(x, y): liealg.bracket({x: 1}, {y: 1}) for x in gens for y in gens}
    failing = []
    for v in elements:
        xv = {g: act(g, v) for g in gens}
        xyv = {(x, y): act(x, xv[y]) for x in gens for y in gens}
        fails = set()
        for (x, y), bxy in brackets.items():
            lhs = ModuleElement(v.params, v.basis)
            for g, c in bxy.items():
                lhs = lhs + xv[g].scale(c)
            if lhs != xyv[x, y] - xyv[y, x]:
                fails.add((x, y))
        failing.append(fails)
    return [(x, y, v.support()) for x, y in brackets
            for v, fails in zip(elements, failing) if (x, y) in fails]


def _orbit_vectors(basis, m_max):
    """The orbit representatives b_(0,0,m), m <= m_max, over Q(mu1, mu2)."""
    params = Params.symbolic()
    return [ModuleElement(params, basis, {(0, 0, m): 1}) for m in range(m_max + 1)]


def _orbit_report(check, bad, m_max, every_m=True, **extra):
    claim = {"k, l": "all", "m_max": m_max, "where": "mu1 + mu2 not in Z"}
    if every_m and m_max >= 4:  # the degree bound in the module docstring
        claim["m"] = "all"
    return _report(check, not bad, params=Params.symbolic(), witnesses=bad[:5],
                   **claim, **extra)


def check_brackets(basis=None, window=4, **_):
    """brackets-<basis>, or brackets-symbolic over all three bases."""
    bad = [w for b in ((basis,) if basis else ("u", "w", "eta"))
           for w in _bracket_compat(_orbit_vectors(b, window))]
    return _orbit_report(f"brackets-{basis or 'symbolic'}", bad, window)


def check_oracle_equivalence(window=4, **_):
    bad = [(gen, v.support()) for v in _orbit_vectors("u", window)
           for gen in liealg.GENERATORS if sections.act_section(gen, v) != act(gen, v)]
    return _orbit_report("oracle-equivalence", bad, window)


def check_basis_roundtrip(window=5, **_):
    bad = [(basis, v.support()[0])
           for basis, there, back in (("w", w_to_u, u_to_w), ("u", u_to_w, w_to_u))
           for v in _orbit_vectors(basis, window) if back(there(v)) != v]
    return _orbit_report("basis-roundtrip", bad, window, every_m=False)


def check_gt_injectivity(window=5, **_):
    params = Params(*GENERIC)
    seen = {}
    collisions = []
    for k in range(-window, window + 1):
        for l in range(-window, window + 1):
            for m in range(window + 1):
                key = gt_eigenvalue((k, l, m), params)
                if key in seen:
                    collisions.append((seen[key], (k, l, m)))
                seen[key] = (k, l, m)
    return _report("gt-injectivity", not collisions, params=params,
                   window=window, witnesses=collisions[:5])


def check_lemma_collision(**_):
    params = Params(*COLLISION)
    a, b = (0, 0, 3), (2, 2, 1)
    collide = gt_eigenvalue(a, params) == gt_eigenvalue(b, params)
    distinct_generic = gt_eigenvalue(a, Params(*GENERIC)) != gt_eigenvalue(
        b, Params(*GENERIC)
    )
    return _report("lemma-collision", collide and distinct_generic, params=params,
                   witnesses=[(a, b)])


def check_simplicity_generic(window=3, **_):
    params = Params(*GENERIC)
    box = Box.radius(window)
    bad = []  # (descriptor, index, generator) missing its axis neighbour
    for dual in (False, True):
        desc = ModuleDescriptor(params, dual=dual)
        for idx in box:
            for axis, pair in enumerate(AXIS_PAIRS):
                for gen, step in zip(pair, (-1, 1)):
                    nxt = tuple(c + step * (i == axis) for i, c in enumerate(idx))
                    if box.contains(nxt) and nxt not in desc.action(gen, idx):
                        bad.append((desc.describe(), idx, gen))
    return _report("simplicity-generic", not bad, params=params, window=window,
                   witnesses=bad[:5])


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


def check_closure_integral(window=3, **_):
    params = Params(*INTEGRAL_MU2)
    t0 = params.mu2_int()
    box = Box.radius(window, t0)
    full = ModuleDescriptor(params, dual=False)
    # the lbar levels the full module reaches from (0, mu2 + lv, 1)
    reached = {lv: {i[1] - t0 for i in generate([(0, t0 + lv, 1)], full, box).reached}
               for lv in range(-window, window + 1)}
    bad = []
    for J, expected in NINE_SETS:
        verdict = bool(is_closed(J, "w", box, params))
        kind = classify(J, box, params)
        if kind != expected:
            bad.append((repr(J), "classified", kind, "expected", expected))
        # BFS containment must agree with closure on the window
        for lv in [lv for lv in reached if J.contains(lv)][:3]:
            stays = all(J.contains(level) for level in reached[lv])
            if stays != verdict:
                bad.append((repr(J), "bfs-vs-closure", (0, t0 + lv, 1), stays, verdict))
    return _report("closure-integral", not bad, params=params, window=window,
                   witnesses=bad[:6])


def check_dual_cyclicity(window=3, **_):
    params = Params(*INTEGRAL_MU2)
    box = Box.radius(window, params.mu2_int())
    dual = ModuleDescriptor(params, dual=True)
    bad = []
    for k0 in (-2, 0, 2):
        cert = generate([(k0, params.mu2_int(), 0)], dual, box)
        if not cert.covers:
            bad.append((k0, cert.missing[:3]))
    return _report("dual-cyclicity", not bad, params=params, window=window,
                   witnesses=bad)


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


def check_hom_dims(window=4, **_):
    params = Params(*INTEGRAL_MU2)
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
    return _report("hom-dims", not bad, params=params, window=window,
                   witnesses=bad, statements=len(HOM_STATEMENTS) + 1)


# (family, J, source-dual, target-dual), each solved over Q(mu1) at mu2 = 0
CLOSED_FORM_PROBLEMS = [
    ("l01_phi", LBarSet.between(0, 1), True, False),
    ("l01_psi", LBarSet.between(0, 1), False, True),
    ("lge2", LBarSet.ge(1), False, True),
    ("lge2", LBarSet.ge(0), False, True),
    ("lle_minus1", LBarSet.le(-1), False, True),
]


def check_closed_forms(window=3, **_):
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
    for params in (Params.symbolic(), Params(*GENERIC)):
        src = ModuleDescriptor(params, dual=True)
        tgt = ModuleDescriptor(params, dual=False)
        box = Box.radius(2 if params.is_symbolic else window)
        fam = family_solution("xabc", src, tgt, box)
        viol = verify_solution(fam)
        if viol:
            bad.append(("xabc", "full", "symbolic" if params.is_symbolic else
                        "specialized", len(viol)))
        if not params.is_symbolic:
            rec = solve_by_recurrence(src, tgt, (0, 0, 0), Fraction(1), box)
            if any(rec.value(i) != fam.value(i) for i in src.indices(box)):
                bad.append(("xabc", "recurrence-mismatch"))
    return _report("closed-forms", not bad, window=window, witnesses=bad)


def check_obstruction(**_):
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
            solve_by_recurrence(src, tgt, (0, 0, 0), Fraction(1), Box.radius(3))
            bad.append((case, "no obstruction raised"))
        except ObstructionAtIndex as e:
            mu = (params.mu1, params.mu2)[axis]
            if e.generator != gen or e.index[axis] - mu != 0:
                bad.append((case, "wrong obstruction", str(e)))
    return _report("obstruction", not bad, window=3, witnesses=bad)


def check_relaxed_verma(window=6, **_):
    params = Params(*INTEGRAL_MU2)
    reports = [relaxed_verma_check(case, params, r=window) for case in (1, 2, 3, 4, 5)]
    bad = [r for r in reports if r["verdict"] != "pass"]
    return _report("relaxed-verma", not bad, params=params, window=window,
                   witnesses=[r["case"] for r in bad], cases=reports)


def check_casimir(window=4, **_):
    """The quadratic Casimir acts by one rational constant, reported as the
    scalar, on every u- and w-basis b_(0,0,m), m <= window, over Q(mu1, mu2).
    The scalar is null unless every vector is diagonal with that one value."""
    bad, values = [], set()
    for basis in ("u", "w"):
        for v in _orbit_vectors(basis, window):
            (idx,) = v.terms
            out = casimir_apply(v)
            if set(out.terms) - {idx}:
                bad.append((basis, idx, "not diagonal"))
            else:
                values.add(scalar_as_fraction(out.terms.get(idx, 0)))
    value = next(iter(values)) if len(values) == 1 else None
    if value is None:
        bad.append(("values", sorted(map(str, values))))
    return _orbit_report("casimir", bad, window, scalar=None if bad else str(value))


def check_exact_sequence(window=3, **_):
    params = Params(*INTEGRAL_MU2)
    rep = exact_sequence_check(params, r=window)
    return _report("exact-sequence", rep["verdict"] == "pass", params=params,
                   window=window, witnesses=rep["witnesses"][:3],
                   checks=rep["checks"])


def check_eigensplit(**_):
    params = Params(*GENERIC)
    v = ModuleElement(params, "w", {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(2)})
    comps, sep = split_eigencomponents(v)
    ok = len(comps) == 2 and sep == (1, 0, 0)
    single = ModuleElement(params, "w", {(0, 0, 0): Fraction(3)})
    comps2, _ = split_eigencomponents(single)
    ok = ok and len(comps2) == 1 and comps2[0][1] == single
    return _report("eigensplit", ok, params=params)


def check_character_formula(window=6, **_):
    params = Params(*INTEGRAL_MU2)
    desc = ModuleDescriptor(params, dual=True, J=LBarSet.ge(0))
    lhs = character_table(desc, window)
    rhs = product_formula_character((0, 0), window)
    bad = characters_agree(lhs, rhs, window)
    return _report("character-formula", not bad, params=params, window=window,
                   witnesses=bad[:5])


CHECKS = {
    "structure-constants": check_structure_constants,
    "brackets-u": lambda **kw: check_brackets(basis="u", **kw),
    "brackets-w": lambda **kw: check_brackets(basis="w", **kw),
    "brackets-eta": lambda **kw: check_brackets(basis="eta", **kw),
    "brackets-symbolic": check_brackets,
    "oracle-equivalence": check_oracle_equivalence,
    "basis-roundtrip": check_basis_roundtrip,
    "gt-injectivity": check_gt_injectivity,
    "lemma-collision": check_lemma_collision,
    "eigensplit": check_eigensplit,
    "simplicity-generic": check_simplicity_generic,
    "closure-integral": check_closure_integral,
    "dual-cyclicity": check_dual_cyclicity,
    "hom-dims": check_hom_dims,
    "closed-forms": check_closed_forms,
    "obstruction": check_obstruction,
    "relaxed-verma": check_relaxed_verma,
    "character-formula": check_character_formula,
    "casimir": check_casimir,
    "exact-sequence": check_exact_sequence,
}


def run_check(name: str, **overrides) -> dict:
    """The check's report, or a refused one if the window cannot decide it."""
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    least = LEAST_WINDOW.get(name, 0)
    window = kwargs.get("window", least)  # every default window decides its check
    if window < least:
        return {"check": name, "verdict": "refused", "window": window,
                "reason": f"{name} needs a window of at least {least}, not {window}"}
    return CHECKS[name](**kwargs)
