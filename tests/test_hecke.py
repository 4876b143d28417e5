import itertools

import pytest

from oracles import (
    all_perms,
    c_prime_product_expansion,
    kl_action_q1,
    max_exponent,
    mu_list,
    t_multiply,
)
from rscells.hecke import HeckeElement, bar, c_prime, canonical_basis_by_bar
from rscells.kl import KLTable, default_table
from rscells.permutations import identity, left_descents, length, multiply_simple
from rscells.polynomials import IntPolynomial, LaurentPoly

V = LaurentPoly.v_power(1)
VINV = LaurentPoly.v_power(-1)
QL = LaurentPoly({2: 1})


def T(n, *word):
    return HeckeElement.t(n, tuple(word))


def test_identity_is_neutral():
    x = T(3, 3, 1, 2) + T(3, 1, 2, 3).scale(QL)
    e = T(3, 1, 2, 3)
    assert t_multiply(e, x) == x
    assert t_multiply(x, e) == x


def test_quadratic_relation():
    s1 = T(3, 2, 1, 3)
    prod = t_multiply(s1, s1)
    expected = T(3, 1, 2, 3).scale(QL) + s1.scale(LaurentPoly({2: 1, 0: -1}))
    assert prod == expected


def test_braid_relation():
    s1, s2 = T(3, 2, 1, 3), T(3, 1, 3, 2)
    left = t_multiply(s1, t_multiply(s2, s1))
    right = t_multiply(s2, t_multiply(s1, s2))
    assert left == right


def test_associativity_on_all_of_s3():
    basis = [T(3, *w) for w in all_perms(3)]
    for a, b, c in itertools.product(basis, repeat=3):
        assert t_multiply(t_multiply(a, b), c) == t_multiply(a, t_multiply(b, c))


def test_t_basis_products_have_unit_top_coefficient():
    # T_u T_w = T_{uw} exactly when lengths add
    from rscells.permutations import compose

    for u in all_perms(3):
        for w in all_perms(3):
            prod = t_multiply(T(3, *u), T(3, *w))
            if length(compose(u, w)) == length(u) + length(w):
                assert prod == T(3, *compose(u, w))


def test_bar_examples():
    e = identity(3)
    assert bar(T(3, *e)) == T(3, *e)
    s1 = (2, 1, 3)
    expected = T(3, *s1).scale(LaurentPoly({-2: 1})) + T(3, *e).scale(
        LaurentPoly({-2: 1, 0: -1})
    )
    assert bar(T(3, *s1)) == expected


def test_bar_is_an_involution():
    for w in all_perms(3):
        assert bar(bar(T(3, *w))) == T(3, *w)


def test_bar_is_multiplicative():
    for u in all_perms(3):
        for w in all_perms(3):
            a, b = T(3, *u), T(3, *w)
            assert bar(t_multiply(a, b)) == t_multiply(bar(a), bar(b))


def test_c_prime_examples():
    e = identity(3)
    assert c_prime(e) == T(3, *e)
    s1 = (2, 1, 3)
    assert c_prime(s1) == (T(3, *s1) + T(3, *e)).scale(VINV)


def test_c_prime_bar_invariance_s4():
    tbl = default_table(4)
    for w in all_perms(4):
        cw = c_prime(w, tbl)
        assert bar(cw) == cw
        for y, coef in cw.coords.items():
            if y != w:
                assert max_exponent(coef.shifted(length(y))) <= -1


def test_c_prime_matches_bar_invariance_solve():
    tbl = default_table(3)
    oracle = canonical_basis_by_bar(3)
    for w in all_perms(3):
        assert c_prime(w, tbl) == oracle[w]


def test_table_matches_bar_invariance_solve_s5():
    # the bar-invariance suite no longer runs this solve, so the independent
    # route is compared here, every P_{y,w} coefficient by coefficient
    n = 5
    tbl = KLTable(n)
    oracle = canonical_basis_by_bar(n)
    for w in all_perms(n):
        for y in all_perms(n):
            want = oracle[w].coeff(y).as_q_polynomial(v_shift=-length(w))
            assert tbl.polynomial(y, w).coeffs == want.coeffs, (y, w)


def test_product_expansion_examples():
    e = identity(3)
    s1 = (2, 1, 3)
    s2s1 = (3, 1, 2)
    w0 = (3, 2, 1)
    assert c_prime_product_expansion(1, e) == {s1: LaurentPoly.one()}
    assert c_prime_product_expansion(1, s1) == {s1: V + VINV}
    # mu(s1, s2 s1) = 1, so the product picks up a C'_{s1} term
    assert c_prime_product_expansion(1, s2s1) == {
        w0: LaurentPoly.one(),
        s1: LaurentPoly.one(),
    }


def test_product_expansion_matches_mu_rule():
    # C'_{s_i} C'_w = C'_{s_i w} + sum mu(z, w) C'_z over z < w, s_i z < z
    tbl = default_table(4)
    for w in all_perms(4):
        for i in range(1, 4):
            got = c_prime_product_expansion(i, w, tbl)
            if i in left_descents(w):
                assert got == {w: V + VINV}
                continue
            expected = {multiply_simple(w, i, "left"): LaurentPoly.one()}
            for z, m in mu_list(tbl, w):
                if i in left_descents(z):
                    expected[z] = LaurentPoly.from_q_polynomial(IntPolynomial((m,)))
            assert got == expected, (w, i)


def test_kl_action_examples():
    e = identity(3)
    s1 = (2, 1, 3)
    assert kl_action_q1(1, s1) == {s1: -1}
    assert kl_action_q1(1, e) == {e: 1, s1: 1}
    with pytest.raises(ValueError):
        kl_action_q1(3, e)


def test_basal_module_characterization():
    # a(y) appears in s_i a(w)  iff  s_i in L(y)\L(w) and mu(y|w) != 0
    tbl = default_table(4)
    for w in all_perms(4):
        ldw = left_descents(w)
        actions = {i: kl_action_q1(i, w, tbl) for i in range(1, 4)}
        for y in all_perms(4):
            if y == w:
                continue
            ldy = left_descents(y)
            for i in range(1, 4):
                appears = actions[i].get(y, 0) != 0
                predicted = i in ldy - ldw and tbl.mu_sym(y, w) != 0
                assert appears == predicted, (y, w, i)
