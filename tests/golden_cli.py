"""Golden CLI outputs: each file under tests/golden/ that holds the stdout of
one `gtsl3` command byte for byte, with the command and why it is pinned.

Tier-1 runs every entry through `cli.main` in one process (test_cli.py).
`python tests/golden_cli.py` runs every entry through the installed console
script and exits 1 if a command exits non-zero, writes to stderr, runs past
TIMEOUT_S or prints other bytes than its file.
"""

import difflib
import shlex
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"
TIMEOUT_S = 120
# read by test_module.py, test_hom.py and test_scalars.py
LIBRARY_GOLDENS = {"actions.json", "hom_solutions.json", "scalar_forms.json"}

# file under tests/golden/ -> the command line after `gtsl3`
GOLDEN_CLI = {
    # the 20 registered checks at their pinned windows: every verdict and report
    "verify_paper.json": "verify-paper",
    # RatFunc never reduces, so these printed values pin the order in which
    # the rows of a symbolic Hom problem are assembled and eliminated
    "hom_symbolic_eq0.json":
        "--symbolic --mu2 0 hom --source dual:lbar=0 --target lbar=0 --window 1",
    "hom_symbolic_l01_dual_plain.json":
        "--symbolic --mu2 0 hom --source dual:l01 --target l01 --window 1",
    "hom_symbolic_l01_plain_dual.json":
        "--symbolic --mu2 0 hom --source l01 --target dual:l01 --window 1",
    "hom_symbolic_eq0_plain_dual.json":
        "--symbolic --mu2 0 hom --source lbar=0 --target dual:lbar=0 --window 1",
    # each recurrence step divides one coefficient into the other, so these
    # printed values pin the step, exact and symbolic; a zero value takes the
    # type of its step's divisor, and prints as "0" or as a RatFunc "(0)"
    "hom_recurrence_full_w3.json":
        "hom --source dual:full --target full --window 3 --recurrence",
    "hom_recurrence_symbolic_l01_w2.json":
        "--symbolic --mu2 0 hom --source dual:l01 --target l01 --window 2 --recurrence",
    "hom_recurrence_symbolic_full_w1.json":
        "--symbolic hom --source dual:full --target full --window 1 --recurrence",
    # the e2 edge into (0, 1, 0) at mu2 = 0 stops the recurrence, on its target's
    # coefficient from plain to dual and on its source's from dual to plain
    "hom_recurrence_obstruction_ge0_w3.json":
        "--mu2 0 hom --source 'lbar>=0' --target 'dual:lbar>=0' --window 3 --recurrence",
    "hom_recurrence_obstruction_l01_w3.json":
        "--mu2 0 hom --source dual:l01 --target l01 --seed 0,1,0 --window 3 --recurrence",
    # the symbolic eta action, a word of three generators over Q(mu1, mu2)
    "act_symbolic_eta.json":
        """--symbolic act --basis eta --word f1,e1,f12 """
        """--element '{"terms":[{"k":0,"l":0,"m":1,"c":"1"}]}'""",
    # Hom between half-line subquotients and their duals, both ways: the
    # solved bases, images and kernels
    "hom_ge0_plain_dual.json":
        "--mu2 0 hom --source 'lbar>=0' --target 'dual:lbar>=0' --window 3",
    "hom_ge0_dual_plain.json":
        "--mu2 0 hom --source 'dual:lbar>=0' --target 'lbar>=0' --window 3",
    "hom_ge0_plain_dual_w6.json":
        "--mu2 0 hom --source 'lbar>=0' --target 'dual:lbar>=0' --window 6",
    "hom_ge0_dual_plain_w6.json":
        "--mu2 0 hom --source 'dual:lbar>=0' --target 'lbar>=0' --window 6",
    "hom_ge1_plain_dual_w6.json":
        "--mu2 0 hom --source 'lbar>=1' --target 'dual:lbar>=1' --window 6",
    "hom_ge1_dual_plain_w6.json":
        "--mu2 0 hom --source 'dual:lbar>=1' --target 'lbar>=1' --window 6",
    # Hom of a module, dual or subquotient to itself: these pin the solved
    # bases of the same-basis rows x_j - x_a
    "hom_same_basis_full_w4.json": "--mu2 0 hom --source full --target full --window 4",
    "hom_same_basis_dual_l01_w4.json":
        "--mu2 0 hom --source dual:l01 --target dual:l01 --window 4",
    "hom_same_basis_ge1_w6.json":
        "--mu2 0 hom --source 'lbar>=1' --target 'lbar>=1' --window 6",
    # a generation certificate that covers the window, and a classification
    "generate_w8.json": "generate --start 0,0,0 --window 8",
    "classify_lbar1_w7.json": "--mu2 0 classify --set lbar=1 --window 7",
    # both are stuck and list missing indices, so filtering by J is pinned
    "generate_band_w4.json":
        "--mu2 0 generate --set 'lbar in -1..2' --start 0,1,0 --window 4",
    "generate_band_dual_w4.json":
        "--mu2 0 generate --set 'lbar in -1..2' --start 0,1,0 --window 4 --dual",
    # dual generation stuck at a wall where the eta action's coefficient
    # vanishes, one on lbar = 0 and one on kbar = 0: they pin which targets
    # the eta action drops as zero
    "generate_dual_lbar_wall_w6.json":
        "--mu2 0 generate --dual --start 0,1,0 --set 'lbar>=0' --window 6",
    "generate_dual_kbar_wall_w5.json":
        "--mu1 0 --mu2 1/5 generate --dual --start -1,0,0 --window 5",
    # a union of two runs, classified
    "classify_union_w7.json": "--mu2 0 classify --set 'lbar<=-1 | lbar>=2' --window 7",
    # weight multiplicities of a dual half-line, keys in "s,t" string order
    "character_ge0_dual_w6.json": "--mu2 0 character --set 'lbar>=0' --dual --window 6",
}


def installed_problem(name, command):
    """What the `gtsl3` on PATH does wrong on one entry, or "" if nothing."""
    try:
        done = subprocess.run(["gtsl3", *shlex.split(command)], capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"ran past {TIMEOUT_S} s"
    if done.returncode or done.stderr:
        return f"exit {done.returncode}, stderr {done.stderr!r}"
    golden = (GOLDEN_DIR / name).read_bytes().splitlines(True)
    diff = difflib.diff_bytes(difflib.unified_diff, golden, done.stdout.splitlines(True),
                              name.encode(), b"stdout")
    return b"".join(diff).decode(errors="replace")


if __name__ == "__main__":
    problems = {name: installed_problem(name, cmd) for name, cmd in GOLDEN_CLI.items()}
    for name, problem in problems.items():
        print(f"{'FAIL' if problem else 'ok'} {name}\n{problem}".rstrip())
    sys.exit(any(problems.values()))
