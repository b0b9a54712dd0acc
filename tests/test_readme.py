"""The README's "Library sketch" block runs as written, and the value its
comment gives for the Gelfand-Tsetlin eigenvalue is the one computed."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _sketch() -> str:
    text = README.read_text()
    match = re.search(r"## Library sketch\s+```python\n(.*?)```", text, re.S)
    assert match, "README.md has no Library sketch block"
    return match.group(1)


def test_the_library_sketch_runs_and_its_eigenvalue_comment_holds():
    code = _sketch()
    namespace = {}
    exec(code, namespace)
    (line,) = [ln for ln in code.splitlines() if ln.startswith("gt_eigenvalue((0, 0, 1), p)")]
    expression, comment = line.split("#")
    stated = tuple(Fraction(x) for x in comment.strip().strip("()").split(","))
    assert stated == (Fraction(-8, 15), Fraction(-14, 15), Fraction(8, 15))
    assert eval(expression, namespace) == stated
