"""The fixed sl3 presentation: eight basis symbols, structure constants,
the involution tau, and the quadratic Casimir.

The 3x3 elementary-matrix realization _E is the one place sl3 is written
down; the rest is derived from it at import time, which removes
transcription risk.  One trace-form dual basis, read off the matrices'
nonzero entries, gives both the coordinates of a matrix in the eight
symbols and the Casimir.  The structure constants are the decomposed
commutators, and the Cartan matrix is read off them; the tests re-derive
the table from hand-typed coordinates and check the Jacobi identity on all
512 basis triples.  The vector fields of ``sections`` and the involution
tau (h_i -> -h_i, e_1 <-> f_1, e_2 <-> f_2, e_12 <-> -f_12) come from the
same matrices, tau as X -> -D X^T D with D = diag(1, -1, 1): a composite
of automorphisms, so tau([x, y]) = [tau(x), tau(y)] by construction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache

from .scalars import combine

GENERATORS = ("e1", "e2", "e12", "f1", "f2", "f12", "h1", "h2")


def require_generator(gen: str) -> None:
    """Refuse a symbol outside GENERATORS, before any term is read."""
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")


def _unit(i, j):
    """The elementary matrix E_ij, with int entries."""
    return tuple(tuple(int((r, c) == (i, j)) for c in range(3)) for r in range(3))


def mat_bracket(x, y):
    """The commutator xy - yx of two 3x3 matrices."""
    return tuple(tuple(sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(3))
                       for j in range(3)) for i in range(3))


# h_i = [e_i, f_i]
_E = {
    "e1": _unit(0, 1), "e2": _unit(1, 2), "e12": _unit(0, 2),
    "f1": _unit(1, 0), "f2": _unit(2, 1), "f12": _unit(2, 0),
    "h1": mat_bracket(_unit(0, 1), _unit(1, 0)),
    "h2": mat_bracket(_unit(1, 2), _unit(2, 1)),
}


def _entries(x) -> dict:
    """The nonzero entries {(row, column): value} of a 3x3 matrix."""
    return {(i, j): v for i, row in enumerate(x) for j, v in enumerate(row) if v}


def _pair(x: dict, y: dict):
    """The trace form tr(xy) of two matrices given by their nonzero entries."""
    return sum(v * y[j, i] for (i, j), v in x.items() if (j, i) in y)


def trace_form(x: str, y: str) -> int:
    return _pair(_entries(_E[x]), _entries(_E[y]))


def _dual_basis() -> dict:
    """{gen: nonzero entries of its trace-form dual}: tr(E_ij E_kl) is 1 if
    (k, l) = (j, i), else 0, so a root vector's dual is its transpose; h1
    and h2 take the closed-form inverse of their Gram matrix."""
    (a, b), (_, d) = [[trace_form(x, y) for y in ("h1", "h2")] for x in ("h1", "h2")]
    det = Fraction(a * d - b * b)
    inverse = {"h1": (d / det, -b / det), "h2": (-b / det, a / det)}
    return {g: combine((ij, c * v) for c, h in zip(inverse[g], ("h1", "h2"))
                       for ij, v in _entries(_E[h]).items())
            if g in inverse else {(j, i): v for (i, j), v in _entries(x).items()}
            for g, x in _E.items()}


_DUAL = _dual_basis()


def decompose(mat) -> dict:
    """Write a traceless 3x3 matrix in the eight-symbol basis: the
    coefficient of g is the trace form of the matrix with g's dual."""
    if mat[0][0] + mat[1][1] + mat[2][2] != 0:
        raise ValueError("matrix is not traceless")
    entries = _entries(mat)
    return {g: c for g, dual in _DUAL.items() if (c := _pair(entries, dual))}


# {(x, y): {gen: coeff}} for all 64 ordered pairs
STRUCTURE = {
    (x, y): decompose(mat_bracket(_E[x], _E[y])) for x in GENERATORS for y in GENERATORS
}

# alpha_i(h_j) read off [h_j, e_i] = alpha_i(h_j) e_i
CARTAN_MATRIX = {
    (i, j): STRUCTURE[(f"h{j}", f"e{i}")].get(f"e{i}", 0)
    for i in (1, 2)
    for j in (1, 2)
}

ALPHA1 = (CARTAN_MATRIX[(1, 1)], CARTAN_MATRIX[(1, 2)])  # values on (h1, h2)
ALPHA2 = (CARTAN_MATRIX[(2, 1)], CARTAN_MATRIX[(2, 2)])


def lie_add(x: dict, y: dict) -> dict:
    return combine(itertools.chain(x.items(), y.items()))


def bracket(x: dict, y: dict) -> dict:
    """Bilinear extension of the structure-constant table."""
    return combine((g, cx * cy * c) for gx, cx in x.items() for gy, cy in y.items()
                   for g, c in STRUCTURE[(gx, gy)].items())


# tau(X) = -D X^T D with D = diag(1, -1, 1): entry (i, j) is -(-1)^(i+j) X_ji
_TAU = {g: decompose(tuple(tuple(Fraction(-(-1) ** (i + j) * x[j][i]) for j in range(3))
                           for i in range(3))) for g, x in _E.items()}


def tau(x) -> dict:
    """The standard involution, extended linearly."""
    if isinstance(x, str):
        return dict(_TAU[x])
    return combine((h, c * s) for g, c in x.items() for h, s in _TAU[g].items())


@cache
def casimir_word():
    """Quadratic Casimir as (coefficient, word) pairs, words leftmost applied
    last: the sum of g g^*, g^* the trace-form dual of g, so it commutes with
    every generator.  The coefficient of h in g^* is the trace form of the
    duals of g and h.  Built on the first call, then shared."""
    return tuple((Fraction(c), (g, h)) for g in GENERATORS for h in GENERATORS
                 if (c := _pair(_DUAL[g], _DUAL[h])))
