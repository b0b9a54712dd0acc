"""Independent oracle for the u-basis action.

Sections of the rank-one local system on the triple big-cell intersection
are spanned by x1^k 1_{mu1} (x) x2^l 1_{mu2} (x) x3^m, so they carry the
same (k, l, m) indexing as the u-basis.  X in sl3 acts by the vector field
(X f)(N) = d/dt f(exp(-tX) N) at t = 0 in the big-cell chart
N(x) = exp(x1 E12) exp(x2 E23) exp(x3 E13), built from ``liealg``'s 3x3
matrices alone.  exp(-tX) N = N(t) b(t) with b(t) lower triangular, so
N^-1 dN/dt is the strictly upper part of N^-1 (-X) N; with a1, a2, a3 its
entries at (0, 1), (1, 2), (0, 2), x1' = a1, x2' = a2 and x3' = a3 - x2 a1.
The h fields have no constant term, so the weight lambda is 0.  The
monodromy enters only in ``_twisted_derivative``: d/dx (x^k 1_mu) =
(k - mu) x^{k-1} 1_mu in x1 and x2 (parameters mu1, mu2), the ordinary
derivative in x3.  No formula from module.py is reused, which is the point:
agreement of the two paths on every section re-derives the whole u-basis
action table.  The ``oracle-equivalence`` check shows it on the orbit
representatives x3^m over Q(mu1, mu2); the registry docstring says why
those settle every section.

A field is a list of (coefficient, (p, q, r), variable) triples standing
for coefficient * x1^p x2^q x3^r * d/d(variable); a polynomial in x1, x2,
x3 is a dict {(p, q, r): coefficient}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add

from . import liealg
from .module import ModuleElement, Params, accumulate
from .scalars import combine

_X1, _X2, _X3 = 1, 2, 3


def _poly_sum(polys):
    return combine(term for poly in polys for term in poly.items())


def _mat_mul(a, b):
    return [[_poly_sum({tuple(map(add, ea, eb)): ca * cb} for k in range(3)
                       for ea, ca in a[i][k].items() for eb, cb in b[k][j].items())
             for j in range(3)] for i in range(3)]


def _exp(gen, var, sign):
    """exp(sign x_var E) = 1 + sign x_var E, for E = gen's matrix, with E^2 = 0."""
    mono = tuple(int(v == var) for v in (_X1, _X2, _X3))
    return [[_poly_sum(({(0, 0, 0): int(i == j)}, {mono: sign * x})) for j, x in enumerate(row)]
            for i, row in enumerate(liealg._E[gen])]


_CHART = (("e1", _X1), ("e2", _X2), ("e12", _X3))
_N = reduce(_mat_mul, [_exp(g, var, 1) for g, var in _CHART])
_N_INV = reduce(_mat_mul, [_exp(g, var, -1) for g, var in reversed(_CHART)])


def _field(x):
    """The vector field of the 3x3 matrix x."""
    a = reduce(_mat_mul, (_N_INV, [[{(0, 0, 0): -c} if c else {} for c in row] for row in x], _N))
    x3 = _poly_sum((a[0][2], {(p, q + 1, r): -c for (p, q, r), c in a[0][1].items()}))
    return [(c, e, var) for var, poly in ((_X1, a[0][1]), (_X2, a[1][2]), (_X3, x3))
            for e, c in sorted(poly.items())]


VECTOR_FIELDS = {g: _field(liealg._E[g]) for g in liealg.GENERATORS}


def _twisted_derivative(var: int, idx, p: Params):
    """(factor, shifted index) for d/dx_var on the monomial section at idx."""
    k, l, m = idx
    if var == _X1:
        return k - p.mu1, (k - 1, l, m)
    if var == _X2:
        return l - p.mu2, (k, l - 1, m)
    if m == 0:
        return Fraction(0), None
    return Fraction(m), (k, l, m - 1)


def act_section(gen: str, v: ModuleElement) -> ModuleElement:
    """Apply a generator to a section term-by-term via its vector field."""
    liealg.require_generator(gen)
    if v.basis != "u":
        raise ValueError("sections are indexed like the u-basis")
    p = v.params

    def expand(idx):
        for coeff, (dp, dq, dr), var in VECTOR_FIELDS[gen]:
            factor, shifted = _twisted_derivative(var, idx, p)
            if shifted is not None:
                k, l, m = shifted
                yield (k + dp, l + dq, m + dr), coeff * factor

    return accumulate(v, expand, "u")
