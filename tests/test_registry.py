import random

import pytest

from gtsl3 import liealg, registry
from gtsl3.module import ModuleElement, Params, act


def _unshared_bracket_compat(params, basis, n_elements, rnd, act):
    """The bracket loop before actions were shared: X(Y v) and Y(X v) are
    recomputed for every pair and [X, Y] v goes through the linear
    extension of the action."""
    bad = []
    elements = [registry._random_element(rnd, params, basis) for _ in range(n_elements)]
    for x in liealg.GENERATORS:
        for y in liealg.GENERATORS:
            bxy = liealg.bracket({x: 1}, {y: 1})
            for v in elements:
                lhs = ModuleElement(v.params, v.basis)
                for gen, c in bxy.items():
                    lhs = lhs + act(gen, v).scale(c)
                rhs = act(x, act(y, v)) - act(y, act(x, v))
                if lhs != rhs:
                    bad.append((x, y, v.support()))
    return bad


def _wrong_act(gen, v):
    """The action, except that e2 doubles what it sends to an odd k."""
    out = act(gen, v)
    if gen != "e2":
        return out
    terms = {idx: 2 * c if idx[0] % 2 else c for idx, c in out.terms.items()}
    return ModuleElement(v.params, v.basis, terms)


@pytest.mark.parametrize("basis", ["u", "w", "eta"])
def test_bracket_check_reports_the_witnesses_of_the_unshared_loop(monkeypatch, basis):
    params = Params(*registry.GENERIC)
    n = 6
    expected = _unshared_bracket_compat(params, basis, n, random.Random(3), _wrong_act)
    calls = []

    def counted(gen, v):
        calls.append(gen)
        return _wrong_act(gen, v)

    monkeypatch.setattr(registry, "act", counted)
    got = registry._bracket_compat(params, basis, n, random.Random(3))
    assert got == expected
    assert 0 < len(got) < len(liealg.GENERATORS) ** 2 * n
    # X v once per generator and X(Y v) once per ordered pair
    gens = len(liealg.GENERATORS)
    assert len(calls) == n * (gens + gens * gens)

