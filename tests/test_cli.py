import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gtsl3 import cli, registry
from gtsl3.cli import MAX_WINDOW, main
from gtsl3.hom import HomSolution
from gtsl3.module import Params
from gtsl3.serialize import MAX_M, parse_descriptor
from gtsl3.subquotient import LBarSet, ModuleDescriptor
from golden_cli import GOLDEN_CLI, GOLDEN_DIR, LIBRARY_GOLDENS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    lines = [json.loads(line) for line in out.splitlines() if line]
    return code, lines


W000 = json.dumps(
    {"basis": "w", "mu1": "1/3", "mu2": "1/5",
     "terms": [{"k": 0, "l": 0, "m": 0, "c": "1"}]}
)


def test_act_single_generator(capsys):
    code, lines = run_cli(capsys, "act", "--gen", "f12", "--element", W000)
    assert code == 0
    (out,) = lines
    assert out["terms"] == [{"k": 0, "l": 0, "m": 1, "c": "-8/15"}]


def test_act_word_and_output_feeds_back_as_input(capsys):
    code, lines = run_cli(capsys, "act", "--gen", "f12", "--element", W000)
    intermediate = json.dumps(lines[0])
    code, lines = run_cli(capsys, "act", "--gen", "e12", "--element", intermediate)
    assert code == 0
    assert lines[0]["terms"] == [{"k": 0, "l": 0, "m": 0, "c": "8/15"}]
    code, lines = run_cli(
        capsys, "act", "--word", "e12,f12", "--element", W000
    )
    assert lines[0]["terms"] == [{"k": 0, "l": 0, "m": 0, "c": "8/15"}]


def test_act_with_basis_flag_and_default_parameters(capsys):
    code, lines = run_cli(
        capsys, "act", "--basis", "w", "--gen", "f12",
        "--element", '{"terms":[{"k":0,"l":0,"m":0,"c":"1"}]}',
    )
    assert code == 0
    assert lines[0]["terms"] == [{"k": 0, "l": 0, "m": 1, "c": "-8/15"}]
    code, lines = run_cli(
        capsys, "act", "--basis", "u", "--gen", "e1", "--element", W000
    )
    assert code == 2  # conflicting basis tags are a usage error


def test_act_empty_element(capsys):
    empty = json.dumps({"basis": "w", "mu1": "1/3", "mu2": "1/5", "terms": []})
    code, lines = run_cli(capsys, "act", "--gen", "e1", "--element", empty)
    assert code == 0
    assert lines[0]["terms"] == []


def test_act_is_byte_deterministic(capsys):
    element = json.dumps(
        {"basis": "u", "mu1": "1/3", "mu2": "1/5",
         "terms": [{"k": 1, "l": -1, "m": 2, "c": "2/7"},
                   {"k": 0, "l": 0, "m": 0, "c": "-3"}]}
    )
    main(["act", "--gen", "f1", "--element", element])
    first = capsys.readouterr().out
    main(["act", "--gen", "f1", "--element", element])
    second = capsys.readouterr().out
    assert first == second


def test_change_basis_roundtrip(capsys):
    w001 = json.dumps(
        {"basis": "w", "mu1": "1/3", "mu2": "1/5",
         "terms": [{"k": 0, "l": 0, "m": 1, "c": "1"}]}
    )
    code, lines = run_cli(capsys, "change-basis", "--to", "u", "--element", w001)
    assert code == 0
    assert lines[0]["terms"] == [
        {"k": 0, "l": 0, "m": 1, "c": "1"},
        {"k": 1, "l": 1, "m": 0, "c": "3/8"},
    ]
    back = json.dumps(lines[0])
    code, lines = run_cli(capsys, "change-basis", "--to", "w", "--element", back)
    assert lines[0]["terms"] == [{"k": 0, "l": 0, "m": 1, "c": "1"}]


def test_pair(capsys):
    eta = json.dumps(
        {"basis": "eta", "mu1": "1/3", "mu2": "1/5",
         "terms": [{"k": 0, "l": 0, "m": 0, "c": "1"}]}
    )
    code, lines = run_cli(capsys, "pair", "--eta", eta, "--w", W000)
    assert code == 0
    assert lines[0]["value"] == "1"


def test_hom_l01(capsys):
    code, lines = run_cli(
        capsys, "--mu2", "0", "hom", "--source", "dual:l01", "--target", "l01",
        "--window", "4",
    )
    assert code == 0
    (res,) = lines
    assert res["dimension"] == 1
    assert res["image"] == {"lbar": {"eq": 0}}
    assert res["kernel"] == {"lbar": {"eq": 1}}


def test_hom_prints_no_image_or_kernel_where_a_level_is_mixed(capsys, monkeypatch):
    argv = ("--mu2", "0", "hom", "--source", "dual:lbar>=0", "--target", "lbar>=0",
            "--window", "2")
    _, [res] = run_cli(capsys, *argv)
    assert (res["image"], res["kernel"]) == ({"lbar": {"eq": 0}}, {"lbar": {"ge": 1}})
    monkeypatch.setattr(cli, "solve_intertwiner", lambda source, target, box: [
        HomSolution(source, target, box, {(0, 0, 0): Fraction(1)})])  # lbar = 0 mixed
    code, [res] = run_cli(capsys, *argv)
    assert code == 0 and res["dimension"] == 1
    assert "image" not in res and "kernel" not in res


def test_hom_recurrence_obstruction(capsys):
    code, lines = run_cli(
        capsys, "--mu2", "0", "hom", "--source", "full", "--target", "dual:full",
        "--window", "3", "--recurrence",
    )
    assert code == 0
    (res,) = lines
    assert res["dimension"] == 0
    assert res["obstructions"][0]["generator"] == "e2"


def test_generate_stuck_inside_closed_set(capsys):
    code, lines = run_cli(
        capsys, "--mu2", "0", "generate", "--start", "0,0,0", "--window", "3"
    )
    assert code == 0
    (res,) = lines
    assert res["verdict"] == "stuck"
    assert res["reached"] == 7 * 4  # the lbar = 0 layer of the window


def test_generate_covers_at_generic_parameters(capsys):
    code, lines = run_cli(
        capsys, "generate", "--start", "2,-1,3", "--window", "3"
    )
    assert lines[0]["verdict"] == "covers-window"


def test_generate_names_an_interval_set_in_the_set_grammar(capsys):
    code, lines = run_cli(capsys, "--mu2", "0", "generate", "--set", "lbar in 1..3",
                          "--start", "0,1,0", "--window", "2")
    assert code == 0
    assert lines[0]["descriptor"] == "plain:lbar in 1..3"


@pytest.mark.parametrize("name", GOLDEN_CLI)
def test_the_cli_prints_the_golden_file(capsys, name):
    """Every golden CLI command, each parsed by the same process's `main`;
    golden_cli.py says why each output is pinned."""
    assert main(shlex.split(GOLDEN_CLI[name])) == 0
    assert capsys.readouterr() == ((GOLDEN_DIR / name).read_text(), "")


def test_every_golden_file_is_read_by_a_tier1_test():
    assert {p.name for p in GOLDEN_DIR.iterdir()} == GOLDEN_CLI.keys() | LIBRARY_GOLDENS


@pytest.mark.parametrize("args", [
    ["--symbolic", "hom", "--source", "full", "--target", "full"],
    ["--symbolic", "--mu2", "0", "hom", "--source", "l01", "--target", "l01"],
], ids=["full", "l01-mu2=0"])
def test_a_symbolic_same_basis_recurrence_prints_every_value_as_1(capsys, args):
    """A same-basis step sets the new value to the known one, so no value is
    a quotient of a coefficient by itself."""
    code, [out] = run_cli(capsys, *args, "--window", "2", "--recurrence")
    assert code == 0 and out["dimension"] == 1 and not out["obstructions"]
    [values] = out["solutions"]
    assert len(values) >= 30 and set(values.values()) == {"1"}


def test_classify_of_the_full_set_exits_2(capsys):
    code, lines = run_cli(capsys, "--mu2", "0", "classify", "--set", "full", "--window", "3")
    assert code == 2
    assert lines == [{"error": "ValueError",
                      "message": "classify needs a proper index set, not 'full'"}]


def test_classify_of_a_set_that_misses_the_window_exits_2(capsys):
    for text, r in (("lbar=5", "3"), ("lbar>=9", "2"), ("lbar<=-7", "3")):
        code, lines = run_cli(capsys, "--mu2", "0", "classify", "--set", text,
                              "--window", r)
        assert _rejected(code, lines), text
        assert lines[-1]["message"] == "window does not meet the index set", text
    code, lines = run_cli(capsys, "--mu2", "0", "classify", "--set", "lbar=5",
                          "--window", "6")
    assert code == 0 and lines[0]["classification"] == "none"


def test_classify(capsys):
    code, lines = run_cli(capsys, "classify", "--set", "lbar=1")
    assert code == 0
    assert lines[0]["classification"] == "subquotient"
    code, lines = run_cli(capsys, "classify", "--set", "lbar>=2")
    assert lines[0]["classification"] == "quotient"
    code, lines = run_cli(capsys, "classify", "--set", "lbar in 0..1")
    assert lines[0]["classification"] == "submodule"


def test_character(capsys):
    code, lines = run_cli(
        capsys, "--mu2", "0", "character", "--set", "lbar>=0", "--dual",
        "--window", "3",
    )
    assert code == 0
    assert lines[0]["table"]["0,0"] == 1
    assert lines[0]["table"]["0,-1"] == 2


def test_verify_paper_single_check(capsys):
    code, lines = run_cli(capsys, "verify-paper", "--check", "lemma-collision")
    assert code == 0
    assert lines[0]["check"] == "lemma-collision"
    assert lines[0]["verdict"] == "pass"


def test_verify_paper_unknown_check_is_a_usage_error(capsys):
    code, lines = run_cli(capsys, "verify-paper", "--check", "no-such-check")
    assert _rejected(code, lines)
    assert lines[0]["error"] == "ValueError"
    for name in (*registry.CHECKS, "all"):
        assert repr(name) in lines[0]["message"]


@pytest.mark.parametrize("flags, named", [
    (("--mu1", "1/2", "--symbolic"), "--mu1"),
    (("--mu2", "0"), "--mu2"),
    (("--symbolic",), "--symbolic"),
])
def test_verify_paper_refuses_the_parameter_flags(capsys, flags, named):
    """Each check runs at its own pinned parameters, so a parameter flag
    would be ignored; it is refused instead, before any check runs."""
    code, lines = run_cli(capsys, *flags, "verify-paper", "--check", "lemma-collision")
    assert _rejected(code, lines) and len(lines) == 1
    assert named in lines[0]["message"]


def test_verify_paper_reads_the_check_ids_when_it_runs(capsys, monkeypatch):
    cli.build_parser()  # the shared parser exists before the registry changes
    monkeypatch.setitem(registry.CHECKS, "added-check",
                        registry.Check(lambda: (True, [])))
    code, lines = run_cli(capsys, "verify-paper", "--check", "added-check")
    assert code == 0
    assert lines == [{"check": "added-check", "verdict": "pass", "witnesses": []}]


def test_invalid_element_json_exits_2(capsys):
    code, lines = run_cli(capsys, "act", "--gen", "e1", "--element", "{not json")
    assert code == 2
    assert "error" in lines[0]


ONE_TERM = '{"terms": [{"k": 0, "l": 0, "m": 0, "c": "1"}]}'
NO_TERMS = '{"terms": []}'


def test_nongeneric_parameters_exit_2(capsys):
    bad = json.dumps(
        {"basis": "w", "mu1": "1/3", "mu2": "2/3",
         "terms": [{"k": 0, "l": 0, "m": 0, "c": "1"}]}
    )
    for argv in (("act", "--gen", "e1", "--element", bad),
                 ("act", "--basis", "eta", "--gen", "e1", "--element", NO_TERMS),
                 ("act", "--basis", "w", "--word", "", "--element", ONE_TERM),
                 ("pair", "--eta", NO_TERMS, "--w", NO_TERMS),
                 ("pair", "--eta", ONE_TERM, "--w", ONE_TERM),
                 ("change-basis", "--to", "w", "--element", '{"basis": "u", "terms": []}'),
                 ("hom", "--source", "full", "--target", "dual:full", "--window", "1"),
                 ("generate", "--start", "0,0,0", "--window", "1")):
        code, lines = run_cli(capsys, "--mu1", "1/3", "--mu2", "2/3", *argv)
        assert code == 2, argv
        assert lines[0]["error"] == "NonGenericParameters", argv
    # the u-basis exists on the line
    code, lines = run_cli(capsys, "--mu1", "1/3", "--mu2", "2/3", "act", "--basis", "u",
                          "--gen", "f1", "--element", ONE_TERM)
    assert code == 0
    assert lines[0]["terms"] == [{"k": 0, "l": -1, "m": 1, "c": "2/3"},
                                 {"k": 1, "l": 0, "m": 0, "c": "1/3"}]


def test_symbolic_element_roundtrip(capsys):
    sym = json.dumps(
        {"basis": "u", "mu1": "symbolic", "mu2": "symbolic",
         "terms": [{"k": 0, "l": 0, "m": 0, "c": "1"}]}
    )
    code, lines = run_cli(capsys, "act", "--gen", "e1", "--element", sym)
    assert code == 0
    assert lines[0]["terms"] == [{"k": -1, "l": 0, "m": 0, "c": "(mu1)"}]
    again = json.dumps(lines[0])
    code, lines = run_cli(capsys, "act", "--word", "", "--element", again)
    assert lines[0]["terms"] == [{"k": -1, "l": 0, "m": 0, "c": "(mu1)"}]


def _rejected(code, lines):
    return code == 2 and set(lines[-1]) == {"error", "message"}


def test_non_object_element_payloads_are_rejected(capsys):
    assert _rejected(*run_cli(capsys, "act", "--gen", "e1", "--element", "[1]"))
    assert _rejected(*run_cli(capsys, "act", "--basis", "w", "--gen", "e1",
                              "--element", "[1]"))
    bad_terms = json.dumps({"basis": "eta", "mu1": "1/3", "mu2": "1/5", "terms": 3})
    assert _rejected(*run_cli(capsys, "pair", "--eta", bad_terms, "--w", W000))
    bad_term = json.dumps({"basis": "w", "mu1": "1/3", "mu2": "1/5", "terms": [1]})
    assert _rejected(*run_cli(capsys, "act", "--gen", "e1", "--element", bad_term))
    null_index = json.dumps({"basis": "w", "mu1": "1/3", "mu2": "1/5",
                             "terms": [{"k": None, "l": 0, "m": 0, "c": "1"}]})
    assert _rejected(*run_cli(capsys, "act", "--gen", "e1", "--element", null_index))
    number_param = json.dumps({"basis": "w", "mu1": 1, "mu2": "1/5", "terms": []})
    assert _rejected(*run_cli(capsys, "act", "--gen", "e1", "--element", number_param))


def test_negative_window_is_rejected(capsys):
    assert _rejected(*run_cli(capsys, "--mu2", "0", "character", "--window", "-3"))
    assert _rejected(*run_cli(capsys, "classify", "--set", "lbar=1", "--window", "-1"))
    assert _rejected(*run_cli(capsys, "generate", "--start", "0,0,0", "--window", "-2"))
    assert _rejected(*run_cli(capsys, "verify-paper", "--check", "casimir",
                              "--window", "-1"))


WINDOW_COMMANDS = (("hom", "--source", "full", "--target", "dual:full"),
                   ("generate", "--start", "0,0,0"),
                   ("--mu2", "0", "character"),
                   ("classify", "--set", "lbar=1"),
                   ("verify-paper", "--check", "casimir"))


def test_every_window_flag_takes_only_a_non_negative_integer(capsys):
    for argv in WINDOW_COMMANDS:
        for bad in ("-1", "1.5", "abc", "", "+2"):
            code, lines = run_cli(capsys, *argv, "--window", bad)
            assert _rejected(code, lines), (argv, bad)
            assert lines[-1]["message"].startswith("argument --window"), (argv, bad)


def test_every_window_flag_is_capped(capsys):
    """A radius past the cap exits 2 before any work: the box of indices
    alone would otherwise have about 10^60 entries.  A radius longer than
    int() converts is refused by the same message."""
    for argv in WINDOW_COMMANDS:
        for big in (str(MAX_WINDOW + 1), "99999999999999999999", "9" * 5000):
            code, lines = run_cli(capsys, *argv, "--window", big)
            assert _rejected(code, lines), (argv, big)
            assert lines[-1]["message"] == (
                f"argument --window: window radius must be at most {MAX_WINDOW}, "
                f"got {big}"), (argv, big)
    code, lines = run_cli(capsys, "--mu2", "0", "classify", "--set", "lbar=1",
                          "--window", f"00{MAX_WINDOW}")
    assert code == 0 and lines[-1]["window"] == MAX_WINDOW


def test_a_payload_m_past_the_cap_exits_2_before_any_work(capsys, monkeypatch):
    def refused(*_):
        raise AssertionError("a refused payload reached the engine")

    for name in ("u_to_w", "w_to_u", "act_word", "pairing"):
        monkeypatch.setattr(cli, name, refused)
    for m in (MAX_M + 1, 10**30):
        u = json.dumps({"basis": "u", "terms": [{"k": 0, "l": 0, "m": m, "c": "1"}]})
        w = u.replace('"u"', '"w"')
        for argv in (("--symbolic", "change-basis", "--to", "w", "--element", u),
                     ("act", "--gen", "e1", "--element", u),
                     ("pair", "--eta", W000.replace('"w"', '"eta"'), "--w", w)):
            code, lines = run_cli(capsys, *argv)
            assert _rejected(code, lines), (argv, m)
            assert lines[-1]["message"] == f"a term's m must be at most {MAX_M}, got {m}"
    monkeypatch.undo()
    u = json.dumps({"basis": "u", "terms": [{"k": 0, "l": 0, "m": MAX_M, "c": "1"}]})
    code, lines = run_cli(capsys, "change-basis", "--to", "w", "--element", u)
    assert code == 0 and len(lines[-1]["terms"]) == MAX_M + 1


def test_element_without_a_basis_names_both_ways_to_give_one(capsys):
    no_basis = json.dumps({"terms": [{"k": 0, "l": 0, "m": 0, "c": "1"}]})
    for argv in (("act", "--gen", "e1", "--element", no_basis),
                 ("change-basis", "--to", "u", "--element", no_basis)):
        code, lines = run_cli(capsys, *argv)
        assert _rejected(code, lines)
        assert lines[-1]["error"] == "ValueError"
        assert '"basis"' in lines[-1]["message"] and "--basis" in lines[-1]["message"]


def test_index_triples_that_are_not_k_l_m_are_rejected(capsys):
    for argv in (("generate", "--start", "0,0"),
                 ("generate", "--start", "0,0,0;1,x,0"),
                 ("hom", "--source", "full", "--target", "dual:full",
                  "--recurrence", "--seed", "0,0"),
                 ("hom", "--source", "full", "--target", "dual:full",
                  "--recurrence", "--seed", "0,0,0,0"),
                 ("generate", "--start", "-1,0"),
                 ("hom", "--source", "full", "--target", "dual:full",
                  "--recurrence", "--seed", "-1,0,0,0")):
        code, lines = run_cli(capsys, *argv)
        assert _rejected(code, lines), argv
        assert lines[-1]["message"].startswith("expected k,l,m"), argv


def test_malformed_flags_exit_2_with_an_error_json(capsys):
    for argv in (("--json", "classify", "--set", "lbar=1"),
                 ("classify", "--set", "lbar=1", "--no-such-flag"),
                 ("classify",),
                 ("hom", "--source", "full"),
                 ("classify", "--set", "lbar=1", "--window", "abc"),
                 ("generate", "--start", "0,0,0", "--window", "abc"),
                 ("--window", "3", "classify", "--set", "lbar=1"),
                 ("change-basis", "--to", "eta", "--element", W000),
                 ("--mu1", "-x/3", "act", "--basis", "w", "--gen", "e1",
                  "--element", '{"terms": []}'),
                 ("--mu2", "--symbolic", "classify", "--set", "lbar=1"),
                 ("hom", "--source", "full", "--target", "dual:full", "--seed", "0,0,0"),
                 ("hom", "--source", "full", "--target", "dual:full", "--seed", "garbage"),
                 ("act", "--basis", "w", "--gen", "e1", "--word", "f1",
                  "--element", '{"terms": []}'),
                 ("act", "--basis", "w", "--element", '{"terms": []}'),
                 ("no-such-command",),
                 ()):
        code, lines = run_cli(capsys, *argv)
        assert _rejected(code, lines), argv
        assert lines[-1]["error"] == "ValueError", argv
    assert capsys.readouterr().err == ""


def test_an_unknown_generator_exits_2_even_where_it_reaches_zero(capsys):
    for argv in (("act", "--basis", "w", "--gen", "zz", "--element", NO_TERMS),
                 ("act", "--basis", "w", "--word", "zz,e12", "--element", ONE_TERM),
                 ("act", "--basis", "w", "--word", "e12,zz", "--element", ONE_TERM)):
        code, lines = run_cli(capsys, *argv)
        assert code == 2, argv
        assert lines == [{"error": "ValueError", "message": "unknown generator 'zz'"}], argv


def test_help_still_exits_0(capsys):
    for argv in (("--help",), ("classify", "--help")):
        try:
            main(list(argv))
        except SystemExit as e:
            assert e.code == 0
        else:
            raise AssertionError(f"{argv} did not exit")
        assert "usage:" in capsys.readouterr().out


ETA000 = json.dumps(
    {"basis": "eta", "mu1": "1/3", "mu2": "1/5",
     "terms": [{"k": 0, "l": 0, "m": 0, "c": "2"}]}
)


def test_pair_takes_parameters_from_the_flags_and_reads_stdin(capsys, monkeypatch):
    bare_eta = '{"terms":[{"k":0,"l":0,"m":0,"c":"2"}]}'
    bare_w = '{"terms":[{"k":0,"l":0,"m":0,"c":"3"},{"k":1,"l":0,"m":0,"c":"5"}]}'
    code, lines = run_cli(capsys, "pair", "--eta", bare_eta, "--w", bare_w)
    assert code == 0 and lines[0]["value"] == "6"
    code, lines = run_cli(capsys, "--mu1", "1/7", "pair", "--eta", bare_eta, "--w", bare_w)
    assert code == 0 and lines[0]["value"] == "6"
    # flag parameters fill only what a payload leaves out
    code, lines = run_cli(capsys, "--mu1", "1/7", "pair", "--eta", ETA000, "--w", bare_w)
    assert _rejected(code, lines) and lines[0]["error"] == "BasisMismatch"
    monkeypatch.setattr("sys.stdin", io.StringIO(bare_w))
    code, lines = run_cli(capsys, "pair", "--eta", ETA000, "--w", "-")
    assert code == 0 and lines[0]["value"] == "6"
    code, lines = run_cli(capsys, "pair", "--eta", W000, "--w", W000)
    assert _rejected(code, lines) and "eta" in lines[0]["message"]


def test_pair_payloads_that_used_to_raise_key_error(capsys):
    no_params = '{"basis":"eta","terms":[]}'
    code, lines = run_cli(capsys, "pair", "--eta", no_params, "--w", W000)
    assert code == 0 and lines[0]["value"] == "0"
    no_basis = '{"mu1":"1/3","mu2":"1/5","terms":[{"k":0,"l":0,"m":0,"c":"1"}]}'
    code, lines = run_cli(capsys, "pair", "--eta", no_basis, "--w", W000)
    assert code == 0 and lines[0]["value"] == "1"
    no_c = '{"basis":"eta","terms":[{"k":0,"l":0,"m":0}]}'
    code, lines = run_cli(capsys, "pair", "--eta", no_c, "--w", W000)
    assert _rejected(code, lines)
    assert lines[0]["error"] == "ValueError" and "'c'" in lines[0]["message"]


def test_symbolic_flag_with_a_specialized_mu2_holds_for_payloads(capsys):
    bare = '{"basis":"w","terms":[{"k":0,"l":0,"m":1,"c":"1"}]}'
    code, lines = run_cli(capsys, "--symbolic", "--mu2", "0", "change-basis",
                          "--to", "u", "--element", bare)
    assert code == 0
    assert (lines[0]["mu1"], lines[0]["mu2"]) == ("symbolic", "0")
    code, lines = run_cli(capsys, "--symbolic", "--mu2", "0", "act", "--gen", "h2",
                          "--element", bare)
    assert (lines[0]["mu1"], lines[0]["mu2"]) == ("symbolic", "0")
    # the payload's own parameter still wins over the flag
    code, lines = run_cli(capsys, "--symbolic", "--mu2", "0", "act", "--gen", "h2",
                          "--element", W000)
    assert (lines[0]["mu1"], lines[0]["mu2"]) == ("1/3", "1/5")


def test_indices_are_json_integers_and_coefficients_are_never_floats(capsys):
    def term(**kw):
        t = {"k": 0, "l": 0, "m": 0, "c": "1"}
        t.update(kw)
        return json.dumps({"basis": "w", "mu1": "1/3", "mu2": "1/5", "terms": [t]})

    for bad in (term(k=1.5), term(l=True), term(m="2"), term(k=1.0),
                term(c=0.12345678901234567890), term(c=2.0), term(c=None)):
        code, lines = run_cli(capsys, "act", "--gen", "h1", "--element", bad)
        assert _rejected(code, lines), bad
        assert lines[0]["error"] == "ValueError", bad
    code, lines = run_cli(capsys, "act", "--gen", "h1", "--element", term(c=3))
    assert code == 0 and lines[0]["terms"][0]["c"] == "7/5"  # 3 * (2/3 - 1/5)


def test_window_before_the_subcommand_says_where_it_goes(capsys):
    for argv in (("--window", "3", "classify", "--set", "lbar=1"),
                 ("--mu2", "0", "--window=3", "classify", "--set", "lbar=1")):
        code, lines = run_cli(capsys, *argv)
        assert _rejected(code, lines), argv
        assert "--window" in lines[0]["message"], argv
        assert "after the subcommand" in lines[0]["message"], argv
    # a mistyped subcommand is still reported as such
    code, lines = run_cli(capsys, "clasify", "--window", "3")
    assert _rejected(code, lines) and "'clasify'" in lines[0]["message"]


def test_pair_reads_at_most_one_payload_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(W000))
    code, lines = run_cli(capsys, "pair", "--eta", "-", "--w", "-")
    assert _rejected(code, lines) and lines[0]["error"] == "ValueError"
    assert "--eta" in lines[0]["message"] and "--w" in lines[0]["message"]


def test_hom_recurrence_seeds_at_the_window_centre(capsys):
    code, lines = run_cli(
        capsys, "--mu2", "5", "hom", "--source", "full", "--target", "dual:full",
        "--recurrence", "--window", "3",
    )
    assert code == 0
    (res,) = lines
    assert res["window"]["lmin"] == 2 and res["window"]["lmax"] == 8
    assert res["dimension"] == 0
    assert res["obstructions"][0]["generator"] == "e2"


def test_hom_recurrence_seed_outside_the_set_names_the_set(capsys):
    code, lines = run_cli(
        capsys, "--mu2", "0", "hom", "--source", "lbar>=2", "--target", "dual:lbar>=2",
        "--recurrence", "--window", "3",
    )
    assert _rejected(code, lines)
    message = lines[-1]["message"]
    assert "(0, 0, 0)" in message and "lbar>=2" in message and "window" not in message
    code, lines = run_cli(
        capsys, "hom", "--source", "full", "--target", "dual:full",
        "--recurrence", "--window", "3", "--seed", "9,0,0",
    )
    assert _rejected(code, lines)
    assert "(9, 0, 0)" in lines[-1]["message"] and "window" in lines[-1]["message"]


def test_hom_recurrence_crosses_a_same_basis_wall(capsys):
    # at mu2 = 0 some edges have a row at their lower end only
    code, lines = run_cli(
        capsys, "--mu2", "0", "hom", "--source", "full", "--target", "full",
        "--recurrence", "--window", "2",
    )
    assert code == 0
    (res,) = lines
    assert res["dimension"] == 1
    assert set(res["solutions"][0].values()) == {"1"}


def test_closed_stdout_exits_1_without_a_traceback():
    # 224 KB of output, more than a pipe holds, so the writer meets the closed end
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gtsl3.cli", "hom", "--source", "dual:full",
         "--target", "full", "--recurrence", "--window", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait() == 1


def test_malformed_index_sets_exit_2_naming_the_set(capsys):
    for text in ("lbar in 1..2..3", "lbarin", "lbar>=", "lbar=1_0", "lbar in 3..1",
                 "lbar>>3", "lbar=\u0663"):
        code, lines = run_cli(capsys, "classify", "--set", text)
        assert _rejected(code, lines), text
        assert lines[-1]["message"].startswith(f"cannot parse index set {text!r}"), text


def test_the_printed_empty_set_exits_2_as_an_empty_interval(capsys):
    """LBarSet.empty() prints "lbar in {}"; read back, it is refused as
    "lbar in 3..1" is, not as text that names no set."""
    for text in ("lbar in {}", "lbar in 3..1"):
        code, lines = run_cli(capsys, "classify", "--set", text)
        assert _rejected(code, lines), text
        assert lines[-1]["message"] == (
            f"cannot parse index set {text!r}: an interval is empty"), text


# (argv, the text its error message must name): a number split by a space or
# a sign, a keyword split or run together, a digit outside ASCII, an "_" in a
# number, an empty generator name and an empty seed
MALFORMED_TOKENS = [
    (("classify", "--set", "lbar>=1 0", "--window", "12"), "lbar>=1 0"),
    (("classify", "--set", "lbar = - 1"), "lbar = - 1"),
    (("classify", "--set", "l bar=1"), "l bar=1"),
    (("classify", "--set", "lbar in 0 . . 1"), "lbar in 0 . . 1"),
    (("classify", "--set", "lbarin1..2"), "lbarin1..2"),
    (("hom", "--source", "f u l l", "--target", "dual:full"), "f u l l"),
    (("hom", "--source", "full", "--target", "dual:f u l l"), "f u l l"),
    (("generate", "--start", "0,0,0_1"), "0,0,0_1"),
    (("generate", "--start", "0,0,\uff10", "--window", "3"), "0,0,\uff10"),
    (("generate", "--start", "0,0,0", "--window", "\uff13"), "\uff13"),
    (("classify", "--set", "lbar=1", "--window", "\u0663"), "\u0663"),
    (("act", "--basis", "w", "--word", "e1,,f1", "--element", W000), "e1,,f1"),
    (("act", "--basis", "w", "--word", ",,", "--element", W000), ",,"),
    (("act", "--basis", "w", "--word", ",e1", "--element", W000), ",e1"),
    (("hom", "--source", "full", "--target", "dual:full", "--recurrence", "--seed", ""), ""),
]


@pytest.mark.parametrize("argv, text", MALFORMED_TOKENS)
def test_a_malformed_token_exits_2_naming_it(capsys, argv, text):
    code, lines = run_cli(capsys, *argv)
    assert _rejected(code, lines)
    assert repr(text) in lines[-1]["message"]


# (argv, an argv of the canonical form that must give the same output)
ACCEPTED_TOKENS = [
    (("classify", "--set", " lbar >= 1 "), ("classify", "--set", "lbar>=1")),
    (("classify", "--set", "lbar in -1 .. 1"), ("classify", "--set", "lbar in -1..1")),
    (("classify", "--set", "lbar=+1"), ("classify", "--set", "lbar=1")),
    (("classify", "--set", "lbar=1", "--window", "03"),
     ("classify", "--set", "lbar=1", "--window", "3")),
    (("generate", "--start", " 0 , 0 , 0 ; +1,0,0 "), ("generate", "--start", "0,0,0;1,0,0")),
    (("generate", "--set", "dual : lbar>=0", "--start", "0,0,0"),
     ("generate", "--set", "lbar>=0", "--dual", "--start", "0,0,0")),
    (("act", "--word", " e12 , f12 ", "--element", W000),
     ("act", "--word", "e12,f12", "--element", W000)),
    (("act", "--word", "", "--element", W000), ("act", "--word", " ", "--element", W000)),
]


@pytest.mark.parametrize("argv, canonical", ACCEPTED_TOKENS)
def test_spaces_around_operators_a_plus_sign_and_leading_zeros_are_read(
        capsys, argv, canonical):
    code, lines = run_cli(capsys, "--mu2", "0", *argv)
    assert code == 0 and (code, lines) == run_cli(capsys, "--mu2", "0", *canonical)


def test_a_union_reads_back_through_set_source_and_target(capsys):
    argv = ("--mu2", "0", "generate", "--start", "0,0,0", "--window", "2")
    code, (first,) = run_cli(capsys, *argv, "--set", "lbar<=-2|lbar=0 |lbar>=2", "--dual")
    printed = first["descriptor"]
    assert code == 0 and printed == "dual:lbar<=-2 | lbar=0 | lbar>=2"
    assert run_cli(capsys, *argv, "--set", printed) == (0, [first])

    def hom(source, target):
        code, (out,) = run_cli(capsys, "--mu2", "0", "hom", "--source", source,
                               "--target", target, "--window", "2")
        assert code == 0
        return {key: value for key, value in out.items() if key not in ("source", "target")}

    assert hom(printed, printed.replace("dual", "plain")) == hom(
        "dual:lbar<=-2|lbar=0|lbar>=2", "lbar<=-2|lbar=0|lbar>=2")


@pytest.mark.parametrize("check", [name for name, rec in registry.CHECKS.items()
                                   if rec.window is None])
def test_a_check_without_a_window_refuses_the_window_flag(capsys, check):
    code, lines = run_cli(capsys, "verify-paper", "--check", check, "--window", "7")
    assert _rejected(code, lines) and "--window" in lines[-1]["message"]
    assert run_cli(capsys, "verify-paper", "--check", check)[0] == 0


@pytest.mark.parametrize("J", [None, LBarSet.ge(-1), LBarSet.le(2), LBarSet.eq(0),
                               LBarSet.between(-1, 2), LBarSet([(None, -2), (0, 1), (4, 6)])])
@pytest.mark.parametrize("dual", [False, True])
def test_a_printed_descriptor_reads_back_as_itself(dual, J):
    p = Params(Fraction(1, 3), Fraction(0))
    d = ModuleDescriptor(p, dual=dual, J=J)
    assert parse_descriptor(d.describe(), p) == d


def test_generate_reads_the_descriptor_it_prints(capsys):
    argv = ("generate", "--start", "0,0,0", "--window", "1")
    code, (first,) = run_cli(capsys, *argv)
    assert code == 0 and first["descriptor"] == "plain:full"
    assert run_cli(capsys, *argv, "--set", first["descriptor"]) == (0, [first])


@pytest.mark.parametrize("c", ["mu1+", "--mu1", "+-mu1", "mu1++mu2", "(mu1-)/(mu2)",
                               "(1 2)", "(mu 1)", "(1)/(mu1+)", "mu1 mu2",
                               pytest.param("9" * 5000, id="<5000 digits>"),
                               pytest.param("mu1^" + "9" * 5000, id="mu1^<5000 digits>")])
def test_a_malformed_symbolic_scalar_exits_2(capsys, c):
    for flags, c_text in ((("--symbolic",), c), ((f"--mu1={c}",), "1")):
        element = json.dumps({"terms": [{"k": 0, "l": 0, "m": 0, "c": c_text}]})
        code, lines = run_cli(capsys, *flags, "act", "--basis", "w", "--gen", "h1",
                              "--element", element)
        assert _rejected(code, lines)
        assert lines[-1]["message"] == f"cannot parse scalar {c!r}"


def test_character_of_a_set_unbounded_below_exits_2(capsys):
    for expr in ("full", "lbar<=0"):
        code, lines = run_cli(capsys, "--mu2", "0", "character", "--set", expr)
        assert _rejected(code, lines), expr
        assert "bounded below" in lines[-1]["message"]


def test_character_does_not_depend_on_the_window(capsys):
    tables = {}
    for r in (2, 6):
        code, lines = run_cli(capsys, "--mu2", "0", "character", "--set",
                              "lbar>=-10", "--window", str(r))
        assert code == 0
        tables[r] = lines[0]["table"]
    assert tables[2]["0,0"] == 11
    assert tables[2] == {key: tables[6][key] for key in tables[2]}
    assert len(tables[2]) == 5 * 3


def _refused_below(capsys, check, least):
    code, lines = run_cli(capsys, "verify-paper", "--check", check,
                          "--window", str(least - 1))
    assert code == 2
    assert lines == [{"check": check, "verdict": "refused", "window": least - 1,
                      "reason": f"{check} needs a window of at least {least}, "
                                f"not {least - 1}"}]
    code, lines = run_cli(capsys, "verify-paper", "--check", check,
                          "--window", str(least))
    assert code == 0 and lines[0]["verdict"] == "pass"


def test_hom_dims_refuses_a_window_below_2(capsys):
    _refused_below(capsys, "hom-dims", 2)


def test_exact_sequence_refuses_a_window_below_1(capsys):
    _refused_below(capsys, "exact-sequence", 1)


def test_closure_integral_refuses_a_window_below_2(capsys):
    _refused_below(capsys, "closure-integral", 2)


def test_dual_cyclicity_refuses_a_window_below_2(capsys):
    _refused_below(capsys, "dual-cyclicity", 2)


def test_closed_forms_refuses_a_window_below_1(capsys):
    # at window 0 the five closed-form problems assemble no equation
    _refused_below(capsys, "closed-forms", 1)


def test_closed_forms_reports_the_window_and_the_symbolic_radius(capsys):
    code, lines = run_cli(capsys, "verify-paper", "--check", "closed-forms",
                          "--window", "5")
    assert code == 0
    assert lines == [{"check": "closed-forms", "verdict": "pass", "window": 5,
                      "witnesses": [], "symbolic_window": 2}]


def test_a_refused_check_keeps_every_other_verdict(capsys):
    code, lines = run_cli(capsys, "verify-paper", "--window", "1")
    assert code == 2
    assert [rep["check"] for rep in lines] == list(registry.CHECKS)
    refused = {rep["check"] for rep in lines if rep["verdict"] == "refused"}
    assert refused == {"closure-integral", "dual-cyclicity", "hom-dims"}
    assert all(rep["verdict"] == "pass" for rep in lines
               if rep["check"] not in refused)


def test_a_failed_check_outranks_a_refused_one(monkeypatch, capsys):
    monkeypatch.setattr(registry, "CHECKS", {
        "hom-dims": registry.CHECKS["hom-dims"],
        "lemma-collision": registry.Check(lambda: (False, [])),
    })
    code, lines = run_cli(capsys, "verify-paper", "--window", "1")
    assert code == 1
    assert [rep["verdict"] for rep in lines] == ["refused", "fail"]


def test_a_rational_in_exponent_notation_exits_2_at_once():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    element = {"terms": [{"k": 0, "l": 0, "m": 0, "c": "1"}]}
    for flags, c in ((("--mu1", "1e9999999"), "1"), ((), "1e9999999")):
        element["terms"][0]["c"] = c
        proc = subprocess.run(
            [sys.executable, "-m", "gtsl3.cli", *flags, "act", "--basis", "w",
             "--gen", "f1", "--element", json.dumps(element)],
            capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 2 and proc.stderr == ""
        assert json.loads(proc.stdout) == {
            "error": "ValueError", "message": "cannot parse scalar '1e9999999'"}


def test_the_window_cap_refuses_exactly_the_capped_checks(monkeypatch, capsys,
                                                          raising_check):
    """At --window 12 the two costly checks refuse before they run; the
    other 18 run (here as stubs: CI runs them for real) and still report."""
    for name, rec in registry.CHECKS.items():
        run = raising_check if rec.most is not None else lambda **_: (True, [])
        monkeypatch.setitem(registry.CHECKS, name, rec._replace(run=run))
    code, lines = run_cli(capsys, "verify-paper", "--window", str(MAX_WINDOW))
    assert code == 2
    assert [rep["check"] for rep in lines] == list(registry.CHECKS)
    refused = {rep["check"]: rep["reason"] for rep in lines
               if rep["verdict"] == "refused"}
    assert refused == {
        "basis-roundtrip": "basis-roundtrip needs a window of at most 9, not 12",
        "closed-forms": "closed-forms needs a window of at most 7, not 12",
    }


ACT_E1 = ("act", "--basis", "w", "--gen", "e1",
          "--element", '{"terms":[{"k":0,"l":0,"m":0,"c":"1"}]}')


@pytest.mark.parametrize("flag, value, before, after", [
    ("--mu1", "-1/3", (), ("--mu2", "1/5", *ACT_E1)),
    ("--mu2", "-1/2", (), ACT_E1),
    ("--start", "-1,0,0", ("generate",), ()),
    ("--seed", "-1,0,0", ("hom", "--source", "full", "--target", "dual:full",
                          "--window", "2", "--recurrence"), ()),
])
def test_a_negative_value_may_follow_its_flag(capsys, flag, value, before, after):
    """argparse reads "-1/3" after a flag as a flag; the CLI takes it as the
    value, as it takes "--mu1=-1/3"."""
    assert main([*before, f"{flag}={value}", *after]) == 0
    joined = capsys.readouterr().out
    assert main([*before, flag, value, *after]) == 0
    assert capsys.readouterr().out == joined


def _fresh_process(argv):
    """(exit code, stdout) of argv in a new python -m gtsl3.cli process."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "gtsl3.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout


def test_requests_in_one_process_answer_as_in_fresh_ones(capsys):
    """The shared parser carries nothing from one request to the next: not
    classify's mu2 = 0, not a parse that failed half way, not --symbolic."""
    element = '{"terms":[{"k":0,"l":0,"m":0,"c":"1"}]}'
    sequence = (
        ("classify", "--set", "lbar=1"),
        ("act", "--basis", "w", "--gen", "h1", "--element", element),
        ("classify", "--set", "lbar=1", "--window", "abc"),
        ("classify", "--set", "lbar=1", "--window", "2"),
        ("--symbolic", "act", "--basis", "w", "--gen", "f12", "--element", element),
        ("act", "--basis", "w", "--gen", "f12", "--element", element),
    )
    answers = []
    for argv in sequence:
        code = main(list(argv))
        answers.append((code, capsys.readouterr().out))
        assert answers[-1] == _fresh_process(argv), argv
    assert json.loads(answers[1][1])["mu2"] == "1/5"
    assert [code for code, _ in answers] == [0, 0, 2, 0, 0, 0]


def test_twenty_requests_build_the_parser_once(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for _ in range(20):
        assert main(list(ACT_E1)) == 0
    capsys.readouterr()
    assert built.count("gtsl3") == 1
