"""Acceptance suite: one test per criterion, each backed by the same check
registry the ``verify-paper`` command runs.  Every comparison is exact
(zero tolerance); windows are fixed here, not tuned.  Run with

    pytest tests/test_acceptance.py -v -s

to see one verdict line per criterion.
"""

from gtsl3.registry import run_check

_cache = {}


def check(name, **overrides):
    key = (name, tuple(sorted(overrides.items())))
    if key not in _cache:
        _cache[key] = run_check(name, **overrides)
    return _cache[key]


def criterion(number, label, reports):
    ok = all(rep["verdict"] == "pass" for rep in reports)
    print(f"ACCEPTANCE {number:2d} {label}: {'PASS' if ok else 'FAIL'}")
    for rep in reports:
        assert rep["verdict"] == "pass", rep
    return ok


def test_criterion_01_structure_constants():
    criterion(1, "structure constants + Jacobi (exact, 64 pairs / 512 triples)",
              [check("structure-constants")])


def test_criterion_02_bracket_compatibility():
    reports = [
        check("brackets-u"),
        check("brackets-w"),
        check("brackets-eta"),
        check("brackets-symbolic"),
    ]
    for rep in reports:
        assert rep["m"] == "all" and rep["k, l"] == "all"
    criterion(2, "bracket compatibility on every basis vector of u, w and eta, "
              "symbolic", reports)


def test_criterion_03_oracle_equivalence():
    rep = check("oracle-equivalence")
    assert rep["m"] == "all" and rep["k, l"] == "all"
    criterion(3, "differential-operator oracle == u-action on every section, "
              "symbolic", [rep])


def test_criterion_04_basis_roundtrip():
    rep = check("basis-roundtrip", window=5)
    assert (rep["k, l"], rep["m_max"]) == ("all", 5)
    criterion(4, "u/w roundtrip identity, all k, l, m<=5, symbolic", [rep])


def test_criterion_05_gt_lemma():
    reports = [check("gt-injectivity", window=5), check("lemma-collision")]
    criterion(5, "eigenvalue injectivity (radius 5) + collision at mu1+mu2 in Z",
              reports)


def test_criterion_06_simplicity():
    reports = [
        check("simplicity-generic", window=3),
        check("closure-integral", window=3),
    ]
    criterion(6, "simplicity axis certificate, plain and dual + closure "
              "agreement on the nine named sets", reports)


def test_criterion_07_dual_cyclicity():
    criterion(7, "dual generated from eta[k0, mu2, 0], k0 in {-2, 0, 2}",
              [check("dual-cyclicity", window=3)])


def test_criterion_08_hom_dimensions():
    rep = check("hom-dims", window=4)
    assert rep["statements"] == 7
    criterion(8, "all six Hom spaces + full self-duality have dimension 1",
              [rep])


def test_criterion_09_closed_forms():
    criterion(9, "closed-form families satisfy every window equation, symbolic",
              [check("closed-forms")])


def test_criterion_10_obstruction():
    criterion(10, "recurrence obstruction at the integral-parameter wall",
              [check("obstruction")])


def test_criterion_11_relaxed_verma():
    rep = check("relaxed-verma", window=6)
    criterion(11, "relaxed Verma identifications + character cone R=6", [rep])
    eigen = {case["case"]: case["checks"].get("f1e1-eigenvalue")
             for case in rep["cases"] if case["case"] in (1, 2, 3)}
    assert eigen == {1: True, 2: True, 3: True}


def test_criterion_12_casimir():
    rep = check("casimir", window=4)
    assert (rep["k, l"], rep["m"]) == ("all", "all")
    criterion(12, "Casimir acts by one scalar on every basis vector, symbolic",
              [rep])
    # recorded value: exactly zero, at every parameter off mu1 + mu2 in Z
    assert rep["scalar"] == "0"


def test_criterion_13_non_splitness():
    criterion(13, "non-split extension witnessed in the lbar band",
              [check("exact-sequence", window=3)])
