"""The fixed sl3 presentation: eight basis symbols, structure constants,
the involution tau, and the quadratic Casimir.

The 3x3 elementary-matrix realization _E is the one place sl3 is written
down.  Structure constants are not typed in by hand: they are generated at
import time from it, which removes transcription risk; the test suite
re-derives the table independently and checks the Jacobi identity on all
512 basis triples.  The Casimir's dual basis is read off the same matrices,
and so are the vector fields of ``sections`` and the involution tau
(h_i -> -h_i, e_1 <-> f_1, e_2 <-> f_2, e_12 <-> -f_12), X -> -D X^T D with
D = diag(1, -1, 1).  That is a composite of automorphisms, so
tau([x, y]) = [tau(x), tau(y)] by construction; the tests keep tau typed
by hand as the oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache

from .scalars import combine

GENERATORS = ("e1", "e2", "e12", "f1", "f2", "f12", "h1", "h2")


def _unit(i, j):
    """The elementary matrix E_ij.  Its entries are ints, so building
    STRUCTURE is integer arithmetic."""
    return tuple(tuple(int((r, c) == (i, j)) for c in range(3)) for r in range(3))


def mat_mul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_sub(x, y):
    return tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(x, y))


def mat_bracket(x, y):
    return mat_sub(mat_mul(x, y), mat_mul(y, x))


_E = {
    "e1": _unit(0, 1), "e2": _unit(1, 2), "e12": _unit(0, 2),
    "f1": _unit(1, 0), "f2": _unit(2, 1), "f12": _unit(2, 0),
    "h1": mat_sub(_unit(0, 0), _unit(1, 1)),
    "h2": mat_sub(_unit(1, 1), _unit(2, 2)),
}


def matrix_oracle(gen: str):
    """3x3 matrix realization of a basis symbol, rows as tuples."""
    return _E[gen]


def mat_trace(x) -> int:
    return x[0][0] + x[1][1] + x[2][2]


def decompose(mat) -> dict:
    """Write a traceless 3x3 matrix in the eight-symbol basis."""
    if mat_trace(mat) != 0:
        raise ValueError("matrix is not traceless")
    coeffs = {
        "e1": mat[0][1],
        "e2": mat[1][2],
        "e12": mat[0][2],
        "f1": mat[1][0],
        "f2": mat[2][1],
        "f12": mat[2][0],
        "h1": mat[0][0],
        "h2": -mat[2][2],
    }
    return {g: c for g, c in coeffs.items() if c}


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


def trace_form(x: str, y: str) -> int:
    return mat_trace(mat_mul(_E[x], _E[y]))


@cache
def casimir_word():
    """Quadratic Casimir as a tuple of (coefficient, word) pairs.

    Words are generator tuples, leftmost applied last.  It is the sum of
    g g^* over the basis, with g^* the dual of g for the trace form, so it
    commutes with every generator; the module layer checks that it acts by
    one common scalar.  The trace form pairs E_ij only with E_ji, to 1, so
    a root vector's dual is its transpose; the duals of h1 and h2 come from
    the closed-form inverse of their 2x2 Gram matrix.  The terms are built
    on the first call and shared by every later one.
    """
    (a, b), (_, d) = [[trace_form(x, y) for y in ("h1", "h2")] for x in ("h1", "h2")]
    det = Fraction(a * d - b * b)
    cartan = {"h1": {"h1": d / det, "h2": -b / det}, "h2": {"h1": -b / det, "h2": a / det}}
    return tuple(
        (Fraction(c), (g, h))
        for g in GENERATORS
        for h, c in (cartan.get(g) or decompose(tuple(zip(*_E[g])))).items()
    )
