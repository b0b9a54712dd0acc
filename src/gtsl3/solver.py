"""Exact nullspace computation for sparse homogeneous systems.

Rows are sparse {column: coefficient} dicts over a coefficient field
(Fraction or RatFunc).  Pivot rows are kept normalized to a unit leading
entry, so every elimination step is a single exact division-and-subtract.
Values still swell over RatFunc, which never reduces: each is a product
along a pivot chain, up to 5,870 terms from the 14 rows of the symbolic
lbar = 0 Hom problem at r = 2.  Zero tests are exact in both fields.
"""

from __future__ import annotations

from fractions import Fraction


def _reduce(row: dict, pivots: dict) -> dict:
    """Eliminate the row's leading column against known pivots until it is
    either empty or leads at a pivot-free column."""
    while row:
        col = min(row)
        piv = pivots.get(col)
        if piv is None:
            return row
        factor = row.pop(col)
        for c, v in piv.items():
            if c == col:
                continue
            s = row.get(c, 0) - factor * v
            if s:
                row[c] = s
            else:
                row.pop(c, None)
    return row


def nullspace(rows, columns):
    """Basis of the solution space of rows . x = 0.

    columns is the ordered list of column labels; returned vectors are
    {column: value} dicts, one per free column, with the free column's
    entry equal to 1.
    """
    pos = {c: i for i, c in enumerate(columns)}
    pivots = {}
    for raw in rows:
        row = {pos[c]: v for c, v in raw.items() if v}
        row = _reduce(row, pivots)
        if row:
            col = min(row)
            lead = row[col]
            pivots[col] = {c: v / lead for c, v in row.items()}
    free = [i for i in range(len(columns)) if i not in pivots]
    basis = []
    for f in free:
        x = {f: Fraction(1)}
        for col in sorted(pivots, reverse=True):
            piv = pivots[col]
            total = 0
            for c, v in piv.items():
                if c == col:
                    continue
                xc = x.get(c)
                if xc is not None:
                    total = total + v * xc
            if total:
                x[col] = -total
        vec = {}
        for c, i in pos.items():
            v = x.get(i)
            if v:
                vec[c] = v
        basis.append(vec)
    return basis
