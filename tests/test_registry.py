import random
from fractions import Fraction

import pytest

from gtsl3 import cli, hom, liealg, registry
from gtsl3.explore import generate
from gtsl3.hom import ModuleDescriptor, family_solution, intertwiner_equations
from gtsl3.module import (
    ACTION_TABLE,
    Box,
    ModuleElement,
    Params,
    act,
    casimir_apply,
    u_to_w,
)
from gtsl3.scalars import MU1, RatFunc


def _random_element(rnd, params, basis):
    """One to three terms with indices of radius 4."""
    terms = {}
    for _ in range(rnd.randint(1, 3)):
        idx = (rnd.randint(-4, 4), rnd.randint(-4, 4), rnd.randint(0, 4))
        terms[idx] = Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 5))
    return ModuleElement(params, basis, terms)


def _unshared_bracket_compat(params, basis, n_elements, rnd, act):
    """The bracket loop before actions were shared: X(Y v) and Y(X v) are
    recomputed for every pair and [X, Y] v goes through the linear
    extension of the action."""
    bad = []
    elements = [_random_element(rnd, params, basis) for _ in range(n_elements)]
    for x in liealg.GENERATORS:
        for y in liealg.GENERATORS:
            bxy = liealg.bracket({x: 1}, {y: 1})
            for v in elements:
                lhs = ModuleElement(v.params, v.basis)
                for gen, c in bxy.items():
                    lhs = lhs + act(gen, v).scale(c)
                rhs = act(x, act(y, v)) - act(y, act(x, v))
                if lhs != rhs:
                    bad.append((x, y, v.support()))
    return bad


def _wrong_act(gen, v):
    """The action, except that e2 doubles what it sends to an odd k."""
    out = act(gen, v)
    if gen != "e2":
        return out
    terms = {idx: 2 * c if idx[0] % 2 else c for idx, c in out.terms.items()}
    return ModuleElement(v.params, v.basis, terms)


@pytest.mark.parametrize("basis", ["u", "w", "eta"])
def test_bracket_check_reports_the_witnesses_of_the_unshared_loop(monkeypatch, basis):
    params = Params(*registry.GENERIC)
    n = 6
    expected = _unshared_bracket_compat(params, basis, n, random.Random(3), _wrong_act)
    calls = []

    def counted(gen, v):
        calls.append(gen)
        return _wrong_act(gen, v)

    monkeypatch.setattr(registry, "act", counted)
    rnd = random.Random(3)
    got = registry._bracket_compat([_random_element(rnd, params, basis)
                                    for _ in range(n)])
    assert got == expected
    assert 0 < len(got) < len(liealg.GENERATORS) ** 2 * n
    # X v once per generator and X(Y v) once per ordered pair with x != y
    gens = len(liealg.GENERATORS)
    assert len(calls) == n * (gens + gens * (gens - 1))


# -- the window checks that the orbit checks replaced, kept as oracles on a
# small window

def _window_roundtrip_oracle(window):
    """basis-roundtrip on every index of the window over Q(mu1, mu2):
    the witnesses (basis, index) where w -> u -> w or u -> w -> u fails."""
    params = Params.symbolic()
    bad = []
    for idx in Box.radius(window):
        w = ModuleElement(params, "w", {idx: Fraction(1)})
        if registry.u_to_w(registry.w_to_u(w)) != w:
            bad.append(("w", idx))
        u = ModuleElement(params, "u", {idx: Fraction(1)})
        if registry.w_to_u(registry.u_to_w(u)) != u:
            bad.append(("u", idx))
    return bad


def _window_casimir_oracle(window):
    """casimir on every u- and w-basis vector of the window at GENERIC: the
    witnesses of a non-diagonal result, and the set of diagonal values."""
    params = Params(*registry.GENERIC)
    bad, values = [], set()
    for basis in ("u", "w"):
        for idx in Box.radius(window):
            out = registry.casimir_apply(ModuleElement(params, basis, {idx: Fraction(1)}))
            if set(out.terms) - {idx}:
                bad.append((basis, idx))
            else:
                values.add(out.terms.get(idx, Fraction(0)))
    return bad, values


def test_roundtrip_orbit_check_agrees_with_the_window_oracle():
    assert _window_roundtrip_oracle(2) == []
    rep = registry.run_check("basis-roundtrip", window=2)
    assert rep["verdict"] == "pass" and rep["k, l"] == "all" and rep["m_max"] == 2
    assert "m" not in rep  # the roundtrip is a statement for m <= m_max only


def test_casimir_orbit_check_agrees_with_the_window_oracle():
    bad, values = _window_casimir_oracle(2)
    assert bad == [] and values == {0}
    for window, every_m in ((2, False), (4, True)):
        rep = registry.run_check("casimir", window=window)
        assert rep["verdict"] == "pass" and rep["scalar"] == "0"
        assert rep["k, l"] == "all" and rep["m_max"] == window
        assert rep["where"] == "mu1 + mu2 not in Z"
        assert (rep.get("m") == "all") is every_m


def _u_to_w_doubled_at_m0(v):
    """u_to_w with every coefficient of a target at m = 0 doubled."""
    out = u_to_w(v)
    return ModuleElement(out.params, out.basis,
                         {idx: 2 * c if idx[2] == 0 else c for idx, c in out.terms.items()})


def _casimir_plus_m(v):
    """The Casimir plus m on each basis vector: diagonal, but not one scalar."""
    out = casimir_apply(v)
    return out + ModuleElement(v.params, v.basis,
                               {idx: idx[2] * c for idx, c in v.terms.items()})


def test_orbit_checks_and_window_oracles_fail_together(monkeypatch):
    monkeypatch.setattr(registry, "u_to_w", _u_to_w_doubled_at_m0)
    assert _window_roundtrip_oracle(2)
    assert registry.run_check("basis-roundtrip", window=2)["verdict"] == "fail"
    monkeypatch.setattr(registry, "casimir_apply", _casimir_plus_m)
    bad, values = _window_casimir_oracle(2)
    assert bad == [] and len(values) == 3
    rep = registry.run_check("casimir", window=2)
    assert rep["verdict"] == "fail" and rep["scalar"] is None


def test_casimir_fails_on_a_diagonal_but_non_constant_value(monkeypatch):
    """mu1 times each vector: diagonal, with one value that is no constant."""
    monkeypatch.setattr(registry, "casimir_apply", lambda v: v.scale(MU1))
    rep = registry.run_check("casimir", window=2)
    assert rep["verdict"] == "fail" and rep["scalar"] is None
    assert rep["witnesses"] == [("values", ["None"])]


def test_casimir_reports_no_scalar_when_a_vector_is_not_diagonal(monkeypatch):
    """The u-basis f12 with its (1, 1, 0) coefficient doubled for m > 3:
    the Casimir stays 0 on b_(0,0,m), m <= 3, and on the w-basis, but is
    not diagonal on b_(0,0,4)."""
    up, (side, side_c) = ACTION_TABLE["u"]["f12"]

    def doubled(q, m):
        return 2 * side_c(q, m) if m > 3 else side_c(q, m)

    monkeypatch.setitem(ACTION_TABLE["u"], "f12", (up, (side, doubled)))
    rep = registry.run_check("casimir", window=4)
    assert rep["verdict"] == "fail"
    assert rep["witnesses"] == [("u", (0, 0, 4), "not diagonal")]
    assert rep["scalar"] is None


def _doubled_above_m3(basis, gen, above=3):
    """The table entry of gen on basis with its first coefficient doubled
    for m > above, so b_(0,0,m), m <= above, acts as before."""
    (offset, coeff), *rest = ACTION_TABLE[basis][gen]

    def doubled(q, m):
        return 2 * coeff(q, m) if m > above else coeff(q, m)

    return ((offset, doubled), *rest)


def test_orbit_checks_fail_on_a_u_entry_broken_only_above_m3(monkeypatch):
    monkeypatch.setitem(ACTION_TABLE["u"], "f12", _doubled_above_m3("u", "f12"))
    rep = registry.run_check("oracle-equivalence", window=4)
    assert rep["verdict"] == "fail"
    assert rep["witnesses"] == [("f12", [(0, 0, 4)])]
    assert registry.run_check("oracle-equivalence", window=3)["verdict"] == "pass"
    rep = registry.run_check("brackets-u", window=4)
    assert rep["verdict"] == "fail"
    assert ("e1", "f12", [(0, 0, 4)]) in rep["witnesses"]
    assert registry.run_check("brackets-w", window=4)["verdict"] == "pass"


def test_brackets_eta_fails_on_a_broken_eta_entry(monkeypatch):
    """e12 on eta_(k,l,m) reads f12's w-coefficient at m - 1, so f12 doubled
    for m > 2 breaks e12 on eta for m > 3 only."""
    monkeypatch.setitem(ACTION_TABLE["w"], "f12", _doubled_above_m3("w", "f12", 2))
    rep = registry.run_check("brackets-eta", window=4)
    assert rep["verdict"] == "fail"
    assert ("e1", "e12", [(0, 0, 4)]) in rep["witnesses"]
    assert registry.run_check("brackets-symbolic", window=4)["verdict"] == "fail"
    assert registry.run_check("oracle-equivalence", window=4)["verdict"] == "pass"
    assert registry.run_check("brackets-w", window=4)["verdict"] == "fail"


@pytest.mark.parametrize("name", ["brackets-u", "brackets-w", "brackets-eta",
                                  "brackets-symbolic", "oracle-equivalence"])
def test_per_vector_checks_report_on_orbit_representatives(name):
    for window, every_m in ((2, False), (4, True)):
        rep = registry.run_check(name, window=window)
        assert rep["verdict"] == "pass" and rep["witnesses"] == []
        assert rep["k, l"] == "all" and rep["m_max"] == window
        assert rep["where"] == "mu1 + mu2 not in Z"
        assert (rep.get("m") == "all") is every_m


def _zeroed_at(basis, gen, idx):
    """The table entry of gen on basis with its first coefficient, the one
    along the generator's axis, zero at idx when mu = (1/3, 1/5).  The dual
    reads it too: e on eta at idx + o, f's axis offset o, and f on eta at
    idx - o, e's axis offset -o."""
    (offset, coeff), *rest = ACTION_TABLE[basis][gen]
    mu1, mu2 = registry.GENERIC

    def zeroed(q, m):
        return 0 if (q.kb + mu1, q.lb + mu2, m) == idx else coeff(q, m)

    return ((offset, zeroed), *rest)


def test_simplicity_generic_names_each_zeroed_axis_coefficient(monkeypatch):
    monkeypatch.setitem(ACTION_TABLE["w"], "f1", _zeroed_at("w", "f1", (1, 2, 1)))
    monkeypatch.setitem(ACTION_TABLE["w"], "f2", _zeroed_at("w", "f2", (-2, -1, 3)))
    rep = registry.run_check("simplicity-generic", window=3)
    assert rep["verdict"] == "fail"
    assert rep["witnesses"] == [("plain:full", (-2, -1, 3), "f2"),
                                ("plain:full", (1, 2, 1), "f1"),
                                ("dual:full", (-2, 0, 3), "e2"),
                                ("dual:full", (2, 2, 1), "e1")]
    assert registry.run_check("simplicity-generic", window=3) == rep


def test_closure_integral_generates_once_per_start_level(monkeypatch):
    calls = []

    def counted(start, desc, box):
        calls.append(start)
        return generate(start, desc, box)

    monkeypatch.setattr(registry, "generate", counted)
    for window in (2, 3):
        calls.clear()
        assert registry.run_check("closure-integral", window=window)["verdict"] == "pass"
        assert len(calls) <= 2 * window + 1


def _at_one_third(c):
    return c.evaluate(Fraction(1, 3), 0) if isinstance(c, RatFunc) else Fraction(c)


def test_closed_form_identities_specialize_to_the_rows_at_one_third():
    """Over Q(mu1) at mu2 = 0, every row and family value of a closed-form
    problem evaluates at mu1 = 1/3 to the row or value computed at
    (1/3, 0), so checking there too would prove nothing more."""
    for name, J, sdual, tdual in registry.CLOSED_FORM_PROBLEMS:
        sides = []
        for params in (Params(MU1, RatFunc(0)), Params(*registry.INTEGRAL_MU2)):
            src = ModuleDescriptor(params, dual=sdual, J=J)
            tgt = ModuleDescriptor(params, dual=tdual, J=J)
            box = src.window(3)
            indices, rows = intertwiner_equations(src, tgt, box)
            fam = family_solution(name, src, tgt, box)
            sides.append((indices,
                          [{i: _at_one_third(c) for i, c in row.items()} for row in rows],
                          [_at_one_third(fam.value(i)) for i in indices]))
        assert sides[0] == sides[1], (name, J)
        assert sides[0][1], (name, J)


def test_closed_forms_fails_on_a_family_broken_only_from_lbar_3(monkeypatch):
    lge2 = hom.closed_form_lge2

    def broken(idx, p):
        value = lge2(idx, p)
        return 2 * value if idx[1] - p.mu2_int() >= 3 else value

    monkeypatch.setitem(hom.CLOSED_FORMS, "lge2", broken)
    rep = registry.run_check("closed-forms", window=3)
    assert rep["verdict"] == "fail"
    assert [w[:3] for w in rep["witnesses"]] == [("lge2", "lbar>=1", "symbolic"),
                                                 ("lge2", "lbar>=0", "symbolic")]
    assert registry.run_check("closed-forms", window=2)["verdict"] == "pass"


@pytest.mark.parametrize("name", list(registry.CHECKS))
def test_each_default_window_lies_in_its_record_range(name):
    rec = registry.CHECKS[name]
    if rec.window is None:  # the check ignores --window and never refuses
        assert (rec.least, rec.most) == (0, None)
    else:
        assert rec.least <= rec.window <= (rec.most or cli.MAX_WINDOW) <= cli.MAX_WINDOW


@pytest.mark.parametrize("name", [name for name, rec in registry.CHECKS.items()
                                  if rec.least or rec.most is not None])
def test_run_check_refuses_outside_the_range_without_running_the_check(
        monkeypatch, raising_check, name):
    rec = registry.CHECKS[name]
    monkeypatch.setitem(registry.CHECKS, name, rec._replace(run=raising_check))
    outside = []
    if rec.least:
        outside.append((rec.least - 1, f"at least {rec.least}"))
    if rec.most is not None:
        outside.append((rec.most + 1, f"at most {rec.most}"))
    for window, bound in outside:
        assert registry.run_check(name, window=window) == {
            "check": name, "verdict": "refused", "window": window,
            "reason": f"{name} needs a window of {bound}, not {window}"}
    with pytest.raises(AssertionError):
        registry.run_check(name)
