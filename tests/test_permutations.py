import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    all_perms,
    bruhat_leq,
    bruhat_leq_subwords,
    compose_as_maps,
    min_coset_rep,
    reduced_word,
)
from rscells.permutations import (
    all_permutations,
    check_permutation,
    compose,
    format_permutation,
    identity,
    inverse,
    left_descents,
    length,
    longest_element,
    multiply_simple,
    parse_permutation,
    right_descents,
)

perms = lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
small_perms = st.integers(min_value=1, max_value=7).flatmap(perms)


def test_compose_examples():
    w = (3, 1, 5, 2, 4)
    assert compose(identity(5), w) == w
    assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)
    assert compose(w, inverse(w)) == identity(5)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


@given(small_perms, st.randoms())
def test_compose_matches_function_composition(u, rnd):
    v = tuple(rnd.sample(range(1, len(u) + 1), len(u)))
    assert compose(u, v) == compose_as_maps(u, v)


def test_length_examples():
    assert length(identity(6)) == 0
    assert length((4, 3, 2, 1)) == 6
    assert length((3, 1, 5, 2, 4)) == 4


@given(small_perms)
def test_length_equals_reduced_word_length(w):
    word = reduced_word(w)
    assert len(word) == length(w)
    prod = identity(len(w))
    for i in word:
        prod = multiply_simple(prod, i)
    assert prod == w


def test_descent_examples():
    assert right_descents((1, 2, 3)) == frozenset()
    assert right_descents((3, 1, 5, 2, 4)) == frozenset({1, 3})
    assert left_descents((3, 2, 1)) == frozenset({1, 2})
    w0 = longest_element(5)
    assert left_descents(w0) == right_descents(w0) == frozenset(range(1, 5))


@given(small_perms)
def test_right_descents_are_left_descents_of_inverse(w):
    assert right_descents(w) == left_descents(inverse(w))


def test_descent_symmetry_exhaustive():
    for n in range(1, 7):
        for w in all_perms(n):
            assert right_descents(w) == left_descents(inverse(w))


@given(small_perms)
def test_inverse_involution(w):
    assert inverse(inverse(w)) == w
    assert length(w) == length(inverse(w))


def test_length_complement_identity():
    for n in range(1, 7):
        w0 = longest_element(n)
        for w in all_perms(n):
            assert length(w) + length(compose(w, w0)) == n * (n - 1) // 2


def test_bruhat_examples():
    assert bruhat_leq((1, 3, 2, 4), (3, 4, 1, 2))
    assert not bruhat_leq((3, 2, 1), (3, 1, 2))
    for w in all_perms(4):
        assert bruhat_leq(identity(4), w)


def test_bruhat_against_subword_oracle():
    for y in all_perms(4):
        for w in all_perms(4):
            assert bruhat_leq(y, w) == bruhat_leq_subwords(y, w), (y, w)


def test_bruhat_is_a_partial_order():
    for n in (3, 4):
        ps = all_perms(n)
        for y in ps:
            for w in ps:
                if bruhat_leq(y, w) and bruhat_leq(w, y):
                    assert y == w
        for x in ps:
            for y in ps:
                if not bruhat_leq(x, y):
                    continue
                for z in ps:
                    if bruhat_leq(y, z):
                        assert bruhat_leq(x, z)


def test_multiply_simple_examples():
    assert multiply_simple((1, 2, 3), 1) == (2, 1, 3)
    assert multiply_simple((2, 1, 3), 2, side="left") == (3, 1, 2)
    w0 = longest_element(4)
    for i in range(1, 4):
        for side in ("left", "right"):
            assert length(multiply_simple(w0, i, side)) == 5


def test_multiply_simple_changes_length_by_one():
    for w in all_perms(5):
        for i in range(1, 5):
            assert abs(length(multiply_simple(w, i)) - length(w)) == 1


def test_multiply_simple_bad_index():
    with pytest.raises(ValueError):
        multiply_simple((1, 2, 3), 3)
    with pytest.raises(ValueError):
        multiply_simple((1, 2, 3), 1, side="middle")


def test_reduced_word_examples():
    assert reduced_word(identity(4)) == ()
    assert reduced_word((1, 3, 2)) == (2,)
    assert reduced_word((3, 2, 1)) == (1, 2, 1)


def test_min_coset_rep():
    assert min_coset_rep(identity(3), 1, 2) == (1, 2, 3)
    assert min_coset_rep((3, 2, 1), 1, 2) == (1, 2, 3)
    rep = min_coset_rep((2, 3, 1, 4), 1, 2)
    assert not right_descents(rep) & {1, 2}
    with pytest.raises(ValueError):
        min_coset_rep((1, 2, 3, 4), 1, 3)


def _coset(w, i, j):
    seen = {w}
    frontier = [w]
    while frontier:
        cur = frontier.pop()
        for k in (i, j):
            nxt = multiply_simple(cur, k)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_min_coset_rep_exhaustive_s4():
    for w in all_perms(4):
        for i, j in ((1, 2), (2, 1), (2, 3), (3, 2)):
            rep = min_coset_rep(w, i, j)
            cos = _coset(w, i, j)
            assert rep in cos and len(cos) == 6
            assert length(rep) == min(length(u) for u in cos)
            assert not right_descents(rep) & {i, j}


def test_enumeration():
    assert list(all_permutations(1)) == [(1,)]
    s3 = list(all_permutations(3))
    assert len(s3) == 6 and s3[0] == (1, 2, 3) and s3[-1] == (3, 2, 1)
    assert s3 == sorted(s3)
    assert sum(1 for _ in all_permutations(5)) == 120
    with pytest.raises(ValueError):
        all_permutations(0)


def test_parse_format_round_trip():
    assert parse_permutation("31524") == (3, 1, 5, 2, 4)
    assert format_permutation((3, 1, 5, 2, 4)) == "31524"
    big = tuple(range(1, 12))
    assert parse_permutation(format_permutation(big)) == big
    for bad in ("", "132x", "122", "[1,2,2]", "[1", "[true]", "[true, 2]", "[2, 1.0]"):
        with pytest.raises(ValueError):
            parse_permutation(bad)


def test_check_permutation():
    with pytest.raises(ValueError):
        check_permutation((1, 1, 2))
    with pytest.raises(ValueError):
        check_permutation((0, 1))
    # bool is an int subclass, but True is not the letter 1
    for bad in ((True,), (True, 2), (2, True), (False, 1)):
        with pytest.raises(ValueError):
            check_permutation(bad)
