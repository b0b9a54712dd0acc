"""Exact nullspace computation for sparse homogeneous systems.

Rows are sparse {column: coefficient} dicts over a coefficient field
(Fraction or RatFunc).  A pivot at column col is kept solved for its
leading unknown, x_col = sum of piv[c] * x_c over its other columns, made by
one division by -lead per entry; so an elimination step only multiplies and
adds, and back-substitution reads each value as a plain sum.  A row that
leads at a new column is its own pivot, as each exact Hom forest row is
(hom._tree_order); back-substitution then multiplies one ratio per column.
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
            s = row[c] + factor * v if c in row else factor * v
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
            neg = -row.pop(col)
            pivots[col] = {c: v / neg for c, v in row.items()}
    free = [i for i in range(len(columns)) if i not in pivots]
    basis = []
    for f in free:
        x = {f: Fraction(1)}
        for col in sorted(pivots, reverse=True):
            total = None
            for c, v in pivots[col].items():
                xc = x.get(c)
                if xc is not None:
                    total = v * xc if total is None else total + v * xc
            if total:
                x[col] = total
        vec = {}
        for c, i in pos.items():
            v = x.get(i)
            if v:
                vec[c] = v
        basis.append(vec)
    return basis
