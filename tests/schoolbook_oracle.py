"""The polynomial product as it stood before large products were packed
into integers: every pair of terms is multiplied and each partial sum is
slimmed to an int when it is integral.

``BiPoly.__mul__`` must return exactly what this returns, equal terms with
equal coefficient types; the tests compare the two.
"""


def _slim(c):
    if isinstance(c, int):
        return c
    if c.denominator == 1:
        return c.numerator
    return c


def schoolbook_product(p: dict, q: dict) -> dict:
    """The terms {(a, b): coeff} of the product of two term dicts."""
    terms = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            s = terms.get(key, 0) + c1 * c2
            if s:
                terms[key] = _slim(s)
            else:
                del terms[key]
    return terms


def typed(terms: dict) -> dict:
    """{key: (type, value)}, so that an int and an equal Fraction differ."""
    return {key: (type(c), c) for key, c in terms.items()}

