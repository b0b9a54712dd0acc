import copy
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gtsl3.hom import _forest_nullspace
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
def systems(draw, two_unknowns=False):
    """(rows, columns) of a small sparse system over Fraction or over small
    RatFuncs, with proportional twins, non-proportional twins, third rows on
    one support, one-unknown rows and explicit zero entries, shuffled.

    two_unknowns: rows have one or two entries, all nonzero, as Hom rows
    do, over more columns, so that trees, cycles and isolated columns
    appear; a non-proportional twin is an inconsistent cycle."""
    scalars = draw(st.sampled_from([nonzero_fractions, small_ratfuncs]))
    size = (4, 3) if two_unknowns else (3, 2)
    # column order differs from label order, so positions and labels differ
    columns = draw(st.permutations([(k, 0, m) for k in range(size[0])
                                    for m in range(size[1])]))
    n = draw(st.integers(1, len(columns)))
    columns = columns[:n]
    labels = st.sampled_from(columns)
    base = draw(st.lists(st.dictionaries(labels, scalars, min_size=1,
                                         max_size=2 if two_unknowns else 3),
                         max_size=12 if two_unknowns else 8))
    kinds = ["none", "twin", "other"] + ([] if two_unknowns else ["third", "zero"])
    rows = list(base)
    for row in base:
        kind = draw(st.sampled_from(kinds))
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
    for vec in got:  # every returned vector solves every row exactly
        for row in rows:
            assert sum((v * vec.get(c, 0) for c, v in row.items()), 0) == 0


@SETTINGS
@given(systems(two_unknowns=True))
def test_forest_solve_prints_what_nullspace_prints_on_all_rows(system):
    rows, columns = system
    assert printed(_forest_nullspace(rows, columns)) == printed(nullspace(rows, columns))
