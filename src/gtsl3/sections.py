"""Independent oracle for the u-basis action.

Sections of the rank-one local system on the triple big-cell intersection
are spanned by x1^k 1_{mu1} (x) x2^l 1_{mu2} (x) x3^m, so they carry the
same (k, l, m) indexing as the u-basis.  The sl3 action arrives here as
first-order differential operators in the three coordinates, applied with
the twisted derivative rule  d/dx (x^k 1_mu) = (k - mu) x^{k-1} 1_mu  in
x1 (parameter mu1) and x2 (parameter mu2) and the ordinary derivative in
x3.  No formula from module.py is reused, which is the point: agreement of
the two paths on every section re-derives the whole u-basis action table.
The ``oracle-equivalence`` check shows it on the orbit representatives
x3^m over Q(mu1, mu2); the registry docstring says why those settle every
section.

Each operator is a list of (coefficient, (p, q, r), variable) triples
standing for  coefficient * x1^p x2^q x3^r * d/d(variable).
"""

from __future__ import annotations

from fractions import Fraction

from .module import ModuleElement, Params

_X1, _X2, _X3 = 1, 2, 3

VECTOR_FIELDS = {
    "e1": [(-1, (0, 0, 0), _X1)],
    "e2": [(-1, (0, 0, 0), _X2), (1, (1, 0, 0), _X3)],
    "e12": [(-1, (0, 0, 0), _X3)],
    "f1": [
        (1, (2, 0, 0), _X1),
        (-1, (0, 0, 1), _X2),
        (-1, (1, 1, 0), _X2),
        (1, (1, 0, 1), _X3),
    ],
    "f2": [(1, (0, 2, 0), _X2), (1, (0, 0, 1), _X1)],
    "f12": [
        (1, (1, 0, 1), _X1),
        (1, (0, 1, 1), _X2),
        (1, (1, 2, 0), _X2),
        (1, (0, 0, 2), _X3),
    ],
    # a(h) = -a1(h) x1 d1 - a2(h) x2 d2 - (a1+a2)(h) x3 d3 for h in the
    # Cartan; h1 and h2 rows use a1 = (2, -1), a2 = (-1, 2)
    "h1": [(-2, (1, 0, 0), _X1), (1, (0, 1, 0), _X2), (-1, (0, 0, 1), _X3)],
    "h2": [(1, (1, 0, 0), _X1), (-2, (0, 1, 0), _X2), (-1, (0, 0, 1), _X3)],
}


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
    if v.basis != "u":
        raise ValueError("sections are indexed like the u-basis")
    p = v.params
    terms = {}
    for idx, c in v.terms.items():
        for coeff, (dp, dq, dr), var in VECTOR_FIELDS[gen]:
            factor, shifted = _twisted_derivative(var, idx, p)
            if shifted is None:
                continue
            value = c * coeff * factor
            if value == 0:
                continue
            k, l, m = shifted
            jdx = (k + dp, l + dq, m + dr)
            s = terms.get(jdx, 0) + value
            if s == 0:
                terms.pop(jdx, None)
            else:
                terms[jdx] = s
    return ModuleElement(p, "u", terms)
