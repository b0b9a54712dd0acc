"""The paper's displayed action formulas for the lbar in {0,1} band.

They are written out by hand, independently of the ambient w- and
eta-action tables, so that the band subquotient's action computed by
``subquotient.act_truncated`` (ambient action, then projection to the
band) can be checked against them.
"""

from fractions import Fraction

from gtsl3.errors import BasisMismatch
from gtsl3.module import ModuleElement, Params


def act_l01_w_basis(gen: str, p: Params, idx):
    t = p.mu2_int()
    p.require_generic_sum()
    k, l, m = idx
    kb = p.kbar(k)
    lb = l - t
    if lb == 0:
        if gen == "e1":
            return [((k - 1, l, m), -kb)]
        if gen == "e2":
            return [((k + 1, l, m - 1), Fraction(m))] if m > 0 else []
        if gen == "f1":
            return [((k + 1, l, m), kb + m)]
        if gen == "f2":
            return [((k - 1, l, m + 1), kb)]
        if gen == "e12":
            return [((k, l, m - 1), Fraction(-m))] if m > 0 else []
        if gen == "f12":
            return [((k, l, m + 1), kb + m)]
    elif lb == 1:
        if gen == "e1":
            return [((k - 1, l, m), -kb)]
        if gen == "e2":
            out = [((k, l - 1, m), Fraction(-1))]
            if m > 0:
                out.append(((k + 1, l, m - 1), m * (kb - 1) / (kb + 1)))
            return out
        if gen == "f1":
            return [
                ((k + 1, l, m), (kb - 1) * (kb + m + 1) / (kb + 1)),
                ((k, l - 1, m + 1), Fraction(-1)),
            ]
        if gen == "f2":
            return [((k - 1, l, m + 1), kb)]
        if gen == "e12":
            return [((k, l, m - 1), Fraction(-m))] if m > 0 else []
        if gen == "f12":
            return [((k, l, m + 1), kb + m + 1)]
    else:
        raise ValueError(f"index {idx} outside the lbar in {{0,1}} band")
    if gen == "h1":
        return [(idx, -2 * kb + lb - m)]
    if gen == "h2":
        return [(idx, kb - 2 * lb - m)]
    raise ValueError(f"unknown generator {gen!r}")


def act_l01_eta_basis(gen: str, p: Params, idx):
    t = p.mu2_int()
    p.require_generic_sum()
    k, l, m = idx
    kb = p.kbar(k)
    lb = l - t
    if lb == 0:
        if gen == "e1":
            out = [((k - 1, l, m), -(kb + m - 1))]
            if m > 0:
                out.append(((k, l + 1, m - 1), Fraction(1)))
            return out
        if gen == "e2":
            return [((k + 1, l, m - 1), -(kb + 1))] if m > 0 else []
        if gen == "f1":
            return [((k + 1, l, m), kb + 1)]
        if gen == "f2":
            return [((k, l + 1, m), Fraction(1)), ((k - 1, l, m + 1), Fraction(-(m + 1)))]
        if gen == "e12":
            return [((k, l, m - 1), kb + m - 1)] if m > 0 else []
        if gen == "f12":
            return [((k, l, m + 1), Fraction(-(m + 1)))]
    elif lb == 1:
        if gen == "e1":
            return [((k - 1, l, m), -(kb - 2) * (kb + m) / kb)]
        if gen == "e2":
            return [((k + 1, l, m - 1), -(kb + 1))] if m > 0 else []
        if gen == "f1":
            return [((k + 1, l, m), kb + 1)]
        if gen == "f2":
            return [((k - 1, l, m + 1), -(m + 1) * (kb - 2) / kb)]
        if gen == "e12":
            return [((k, l, m - 1), kb + m)] if m > 0 else []
        if gen == "f12":
            return [((k, l, m + 1), Fraction(-(m + 1)))]
    else:
        raise ValueError(f"index {idx} outside the lbar in {{0,1}} band")
    if gen == "h1":
        return [(idx, -2 * kb + lb - m)]
    if gen == "h2":
        return [(idx, kb - 2 * lb - m)]
    raise ValueError(f"unknown generator {gen!r}")


def act_l01_fastpath(gen: str, v: ModuleElement) -> ModuleElement:
    """Action in the lbar in {0,1} subquotient via its displayed formulas.

    Equal to act_truncated(..., J = {lbar in [0,1]}) on every input; the
    equality is a test target, not an assumption.
    """
    table = act_l01_w_basis if v.basis == "w" else act_l01_eta_basis
    if v.basis not in ("w", "eta"):
        raise BasisMismatch("fast path needs a w- or eta-element")
    p = v.params
    terms = {}
    for idx, c in v.terms.items():
        for jdx, a in table(gen, p, idx):
            s = terms.get(jdx, 0) + c * a
            if s:
                terms[jdx] = s
            else:
                terms.pop(jdx, None)
    return ModuleElement(p, v.basis, terms)
