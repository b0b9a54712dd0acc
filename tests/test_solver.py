import copy
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gtsl3.scalars import MU1, MU2
from gtsl3.solver import nullspace
from nullspace_oracle import nullspace_oracle

# deterministic and quick, so that the suite stays reproducible
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)

nonzero_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
RAT_ATOMS = (1, MU1, MU2, MU1 + MU2 - 1, 1 / (MU1 + 1), MU2 / (MU1 - 2))
small_ratfuncs = st.tuples(nonzero_fractions, st.sampled_from(RAT_ATOMS)).map(
    lambda t: t[0] * t[1])


def printed(basis):
    """Each returned vector with its values' types and printed forms."""
    return [{c: (type(v).__name__, str(v)) for c, v in vec.items()} for vec in basis]


@st.composite
def systems(draw):
    """(rows, columns) of a small sparse system over Fraction or over small
    RatFuncs, with proportional twins, non-proportional twins, third rows on
    one support, one-unknown rows and explicit zero entries, shuffled."""
    scalars = draw(st.sampled_from([nonzero_fractions, small_ratfuncs]))
    # column order differs from label order, so positions and labels differ
    columns = draw(st.permutations([(k, 0, m) for k in range(3) for m in range(2)]))
    n = draw(st.integers(1, len(columns)))
    columns = columns[:n]
    labels = st.sampled_from(columns)
    base = draw(st.lists(st.dictionaries(labels, scalars, min_size=1, max_size=3),
                         max_size=8))
    rows = list(base)
    for row in base:
        kind = draw(st.sampled_from(["none", "twin", "other", "third", "zero"]))
        if kind in ("twin", "third"):
            k = draw(scalars)
            rows.append({c: k * v for c, v in row.items()})
        if kind in ("other", "third"):
            rows.append({c: draw(scalars) for c in row})
        if kind == "zero":
            rows.append({**{c: draw(scalars) for c in row}, draw(labels): Fraction(0)})
    rows += [{c: draw(scalars)} for c in draw(st.lists(labels, max_size=2))]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], columns


@SETTINGS
@given(systems())
def test_nullspace_returns_exactly_the_oracle_basis(system):
    rows, columns = system
    before = copy.deepcopy(rows)
    got = nullspace(rows, columns)
    assert rows == before  # the caller's rows are read, never changed
    assert printed(got) == printed(nullspace_oracle(rows, columns))


def test_twin_is_compared_with_the_row_the_caller_gave():
    # elimination turns the first (x, y) row into y = 0 in place; a twin test
    # against that reduced row would misjudge the later (x, y) rows
    x, y, z = "x", "y", "z"
    cases = [
        [{x: 1}, {x: 1, y: 1}, {x: 1, y: 2}],           # not a twin: forces y = 0
        [{x: 1}, {x: 1, y: 1}, {x: 2, y: 2}, {y: 1, z: 1}],  # twin, skipped
        [{x: 1, z: 1}, {x: 1, y: 1}, {x: 3, y: 1}, {y: 1, z: -1}],
        [{y: 1, z: 2}, {x: 1, y: 1}, {x: 2, y: 2}, {x: 1, y: 3}],
    ]
    for rows in cases:
        before = copy.deepcopy(rows)
        got = nullspace(rows, [x, y, z])
        assert rows == before
        assert printed(got) == printed(nullspace_oracle(rows, [x, y, z])), rows

