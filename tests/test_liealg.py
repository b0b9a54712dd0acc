from fractions import Fraction

import pytest

from gtsl3 import liealg


def test_matrix_oracle_images_are_traceless():
    for g in liealg.GENERATORS:
        assert sum(liealg._E[g][i][i] for i in range(3)) == 0


# the 3x3 realization, typed out: e_ij is the unit matrix E_ij and
# h1 = E_11 - E_22, h2 = E_22 - E_33
MATRICES = {
    "e1": ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
    "e2": ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
    "e12": ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
    "f1": ((0, 0, 0), (1, 0, 0), (0, 0, 0)),
    "f2": ((0, 0, 0), (0, 0, 0), (0, 1, 0)),
    "f12": ((0, 0, 0), (0, 0, 0), (1, 0, 0)),
    "h1": ((1, 0, 0), (0, -1, 0), (0, 0, 0)),
    "h2": ((0, 0, 0), (0, 1, 0), (0, 0, -1)),
}


def _commutator(x, y):
    def product(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]

    return [[p - q for p, q in zip(r, s)] for r, s in zip(product(x, y), product(y, x))]


def _decompose(mat):
    """A traceless matrix in the eight symbols: each root vector's
    coefficient is its entry, and diag(a, b - a, -b) = a h1 + b h2."""
    assert mat[0][0] + mat[1][1] + mat[2][2] == 0
    coeffs = {"e1": mat[0][1], "e2": mat[1][2], "e12": mat[0][2],
              "f1": mat[1][0], "f2": mat[2][1], "f12": mat[2][0],
              "h1": mat[0][0], "h2": -mat[2][2]}
    return {g: c for g, c in coeffs.items() if c}


def test_structure_table_matches_matrix_commutators():
    for g, mat in MATRICES.items():
        assert liealg._E[g] == mat
        assert _decompose(mat) == {g: 1}
    for x in liealg.GENERATORS:
        for y in liealg.GENERATORS:
            expected = _decompose(_commutator(MATRICES[x], MATRICES[y]))
            assert liealg.STRUCTURE[(x, y)] == expected, (x, y)


def test_decompose_refuses_a_matrix_with_nonzero_trace():
    with pytest.raises(ValueError, match="not traceless"):
        liealg.decompose(((1, 0, 0), (0, 0, 0), (0, 0, 0)))


def test_the_coordinates_follow_a_permuted_realization(monkeypatch):
    # swap the e1 and e2 matrices and rebuild the dual basis from them: the
    # coordinates follow the matrices, and the commutator table is the old
    # one with e1 and e2 renamed
    swap = {"e1": "e2", "e2": "e1"}
    e1, e2 = liealg._E["e1"], liealg._E["e2"]
    monkeypatch.setitem(liealg._E, "e1", e2)
    monkeypatch.setitem(liealg._E, "e2", e1)
    monkeypatch.setattr(liealg, "_DUAL", liealg._dual_basis())
    for g in liealg.GENERATORS:
        assert liealg.decompose(liealg._E[g]) == {g: 1}, g
    for x in liealg.GENERATORS:
        for y in liealg.GENERATORS:
            got = liealg.decompose(liealg.mat_bracket(liealg._E[x], liealg._E[y]))
            renamed = {swap.get(g, g): c
                       for g, c in liealg.STRUCTURE[(swap.get(x, x), swap.get(y, y))].items()}
            assert got == renamed, (x, y)


def test_named_brackets():
    assert liealg.bracket({"e1": 1}, {"f1": 1}) == {"h1": 1}
    assert liealg.bracket({"e1": 1}, {"e2": 1}) == {"e12": 1}
    assert liealg.bracket({"h1": 1}, {"h1": 1}) == {}
    # f12 realizes -[f1, f2]
    assert liealg.bracket({"f1": 1}, {"f2": 1}) == {"f12": -1}


def test_jacobi_all_triples():
    for x in liealg.GENERATORS:
        for y in liealg.GENERATORS:
            for z in liealg.GENERATORS:
                total = liealg.lie_add(
                    liealg.bracket({x: 1}, liealg.bracket({y: 1}, {z: 1})),
                    liealg.lie_add(
                        liealg.bracket({y: 1}, liealg.bracket({z: 1}, {x: 1})),
                        liealg.bracket({z: 1}, liealg.bracket({x: 1}, {y: 1})),
                    ),
                )
                assert total == {}


def test_cartan_matrix():
    assert liealg.ALPHA1 == (2, -1)
    assert liealg.ALPHA2 == (-1, 2)


# tau, typed by hand: the oracle of its derivation from the matrices
TAU = {
    "h1": {"h1": -1}, "h2": {"h2": -1},
    "e1": {"f1": 1}, "f1": {"e1": 1},
    "e2": {"f2": 1}, "f2": {"e2": 1},
    "e12": {"f12": -1}, "f12": {"e12": -1},
}


def test_tau_values_and_involution():
    assert set(TAU) == set(liealg.GENERATORS)
    for g in liealg.GENERATORS:
        once = liealg.tau(g)
        assert once == TAU[g], g
        assert all(type(c) is Fraction for c in once.values()), g
        assert liealg.tau(once) == {g: 1}, g


def test_tau_is_an_automorphism():
    # the identity the matrix oracle validates: tau([x,y]) = [tau x, tau y]
    for a in liealg.GENERATORS:
        for b in liealg.GENERATORS:
            lhs = liealg.tau(liealg.bracket({a: 1}, {b: 1}))
            rhs = liealg.bracket(liealg.tau(a), liealg.tau(b))
            assert lhs == rhs


def test_casimir_word_shape():
    terms = liealg.casimir_word()
    # six opposite-root products with unit coefficient plus the Cartan block
    words = {w: c for c, w in terms}
    assert words[("e1", "f1")] == 1 and words[("f1", "e1")] == 1
    assert words[("e12", "f12")] == 1 and words[("f12", "e12")] == 1
    assert words[("h1", "h1")] == Fraction(2, 3)
    assert words[("h1", "h2")] == Fraction(1, 3)
    assert len(terms) == 10
    assert liealg.casimir_word() is terms  # built once, then shared
    # the whole tuple, in order and with Fraction coefficients
    one, third = Fraction(1), Fraction(1, 3)
    assert [(type(c), c, w) for c, w in terms] == [(Fraction, c, w) for c, w in (
        (one, ("e1", "f1")), (one, ("e2", "f2")), (one, ("e12", "f12")),
        (one, ("f1", "e1")), (one, ("f2", "e2")), (one, ("f12", "e12")),
        (2 * third, ("h1", "h1")), (third, ("h1", "h2")),
        (third, ("h2", "h1")), (2 * third, ("h2", "h2")),
    )]


def test_trace_form_pairs_opposite_roots():
    assert liealg.trace_form("e1", "f1") == 1
    assert liealg.trace_form("e1", "e1") == 0
    assert liealg.trace_form("h1", "h1") == 2
    assert liealg.trace_form("h1", "h2") == -1


def test_generator_names_are_the_wire_format():
    assert liealg.GENERATORS == ("e1", "e2", "e12", "f1", "f2", "f12", "h1", "h2")
