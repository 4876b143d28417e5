import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import all_perms, evacuation_by_rectify
from rscells.permutations import identity, inverse
from rscells.tableaux import (
    EMPTY_TABLEAU,
    Tableau,
    column_insert,
    conjugate,
    evacuation,
    inner_corners,
    insert_word,
    is_partition,
    jdt_slide,
    p_symbol,
    partitions,
    permutation_tableau,
    q_symbol,
    reading_word,
    reading_word_to_tableau,
    rectify,
    row_insert,
    rs_inverse,
    semistandard_tableaux,
    staircase,
    standard_tableaux,
    superstandard,
)

perm_strategy = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


# -- shapes -----------------------------------------------------------------

def test_shape_helpers():
    assert is_partition((3, 2, 2)) and not is_partition((2, 3))
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate(()) == ()
    assert staircase(5) == (4, 3, 2, 1)
    assert sorted(partitions(4)) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert inner_corners((3, 2, 2)) == [(1, 3), (3, 2)]


def test_tableau_validation():
    Tableau([[1, 2], [2]])
    with pytest.raises(ValueError):
        Tableau([[2, 1]])  # row decreases
    with pytest.raises(ValueError):
        Tableau([[2, 3], [1]])  # column decreases
    with pytest.raises(ValueError):
        Tableau([[1], [1, 2]])  # not a partition
    with pytest.raises(ValueError):
        Tableau([[0]])
    with pytest.raises(ValueError):
        Tableau([[1]], inner=(1, 1))
    skew = Tableau([[2], [1]], inner=(1,))
    assert skew.is_skew and skew.outer == (2, 1) and skew.size == 2
    assert skew.entry(1, 2) == 2 and skew.entry(2, 1) == 1
    with pytest.raises(ValueError):
        skew.entry(1, 1)


def test_tableau_kinds():
    assert Tableau([[1, 1], [2]]).is_column_strict()
    assert not Tableau([[1, 1], [2]]).is_row_strict()
    assert Tableau([[1, 3], [2]]).is_standard()
    assert not Tableau([[1, 1], [2]]).is_standard()
    assert EMPTY_TABLEAU.is_standard()


def test_tableau_json_round_trip():
    t = Tableau([[1, 2, 4], [3, 5]])
    assert Tableau.from_json(t.to_json()) == t
    skew = Tableau([[2], [1]], inner=(1,))
    assert Tableau.from_json(skew.to_json()) == skew
    assert skew.to_json() == {"rows": [[2], [1]], "inner": [1]}
    with pytest.raises(ValueError):
        Tableau.from_json({"cols": []})


def test_render():
    assert Tableau([[1, 2, 4], [3, 5]]).render() == "1 2 4\n3 5"
    assert Tableau([[2], [1]], inner=(1,)).render() == ". 2\n1"


# -- insertion --------------------------------------------------------------

def test_row_insert_examples():
    t, cell = row_insert(EMPTY_TABLEAU, 5)
    assert t == Tableau([[5]]) and cell == (1, 1)
    # the worked example: insert 3,1,5,2,4 successively
    t = EMPTY_TABLEAU
    for k in (3, 1, 5, 2, 4):
        t, _ = row_insert(t, k)
    assert t == Tableau([[1, 2, 4], [3, 5]])
    # hand-run bumping trace: 3 bumps 4, 4 bumps 5, 5 starts a new row
    t, cell = row_insert(Tableau([[1, 2, 4], [3, 5]]), 3)
    assert t == Tableau([[1, 2, 3], [3, 4], [5]])
    assert cell == (3, 1)


def test_row_insert_rejects_bad_input():
    with pytest.raises(ValueError):
        row_insert(Tableau([[2], [1]], inner=(1,)), 1)
    with pytest.raises(ValueError):
        row_insert(Tableau([[1, 2], [1, 3]]), 2)  # not column-strict


def test_column_insert_examples():
    t, cell = column_insert(5, EMPTY_TABLEAU)
    assert t == Tableau([[5]]) and cell == (1, 1)
    t, cell = column_insert(3, Tableau([[1]]))
    assert t == Tableau([[1], [3]]) and cell == (2, 1)
    t, cell = column_insert(1, Tableau([[3]]))
    assert t == Tableau([[1, 3]]) and cell == (1, 2)


def _partial_standard_tableaux(max_size, universe):
    """Column-strict tableaux with distinct entries from ``universe``."""
    for m in range(max_size + 1):
        for shape in partitions(m):
            for entries in itertools.combinations(universe, m):
                relabel = dict(enumerate(entries, start=1))
                for std in standard_tableaux(shape):
                    yield Tableau([[relabel[e] for e in row] for row in std.rows])


def test_column_insert_is_transpose_dual_of_row_insert():
    universe = (1, 2, 3, 4, 5)
    for t in _partial_standard_tableaux(4, universe):
        free = set(universe) - set(t.entries())
        for k in free:
            rt, rcell = row_insert(t, k)
            ct, ccell = column_insert(k, t.transpose())
            assert ct == rt.transpose()
            assert ccell == (rcell[1], rcell[0])


def _mixed_p(w, k):
    t = EMPTY_TABLEAU
    for a in reversed(w[:k]):
        t, _ = column_insert(a, t)
    for a in w[k:]:
        t, _ = row_insert(t, a)
    return t


def test_mixed_insertion_on_worked_example():
    w = (3, 1, 5, 2, 4)
    for k in range(len(w) + 1):
        assert _mixed_p(w, k) == p_symbol(w), k


def test_mixed_insertion_exhaustive():
    for n in range(1, 6):
        for w in all_perms(n):
            p = p_symbol(w)
            for k in range(n + 1):
                assert _mixed_p(w, k) == p


# -- P and Q symbols ----------------------------------------------------------

def test_symbol_examples():
    assert p_symbol((3, 1, 5, 2, 4)) == Tableau([[1, 2, 4], [3, 5]])
    assert q_symbol((3, 1, 5, 2, 4)) == Tableau([[1, 3, 5], [2, 4]])
    n = 6
    assert p_symbol(identity(n)) == Tableau([list(range(1, n + 1))])
    assert q_symbol(identity(n)) == p_symbol(identity(n))
    assert p_symbol((2, 1)) == Tableau([[1], [2]])
    assert q_symbol((2, 1)) == Tableau([[1], [2]])


def test_symbols_share_shape_and_q_is_p_of_inverse():
    for n in range(1, 8):
        for w in all_perms(n):
            p, q = insert_word(w)
            assert p.outer == q.outer
            assert q == p_symbol(inverse(w))
            assert p.is_standard() and q.is_standard()


def test_insert_word_with_repeats():
    p, q = insert_word((2, 1, 2, 2, 1))
    assert p.is_column_strict() and q.is_standard()
    assert p.outer == q.outer
    assert sorted(p.entries()) == [1, 1, 2, 2, 2]


def test_rs_inverse_examples():
    assert rs_inverse(Tableau([[1, 2, 4], [3, 5]]), Tableau([[1, 3, 5], [2, 4]])) == (
        3, 1, 5, 2, 4,
    )
    row = Tableau([[1, 2, 3]])
    assert rs_inverse(row, row) == identity(3)


def test_rs_inverse_errors():
    with pytest.raises(ValueError):
        rs_inverse(Tableau([[1, 2]]), Tableau([[1], [2]]))
    with pytest.raises(ValueError):
        rs_inverse(Tableau([[1, 1]]), Tableau([[1, 2]]))


def test_rs_round_trip_s5():
    seen = set()
    for w in all_perms(5):
        pair = (p_symbol(w), q_symbol(w))
        assert pair not in seen
        seen.add(pair)
        assert rs_inverse(*pair) == w


@given(perm_strategy)
def test_rs_round_trip_random(w):
    assert rs_inverse(p_symbol(w), q_symbol(w)) == w


# -- jeu de taquin ------------------------------------------------------------

def test_rectify_of_straight_tableau_is_identity():
    t = Tableau([[1, 2], [3]])
    assert rectify(t) == t


def test_jdt_slide_rejects_bad_holes():
    skew = Tableau([[2], [1]], inner=(1,))
    with pytest.raises(ValueError):
        jdt_slide(skew, (2, 1))
    with pytest.raises(ValueError):
        jdt_slide(Tableau([[1, 2]]), (1, 1))


def test_rectify_permutation_tableaux_small():
    for n in range(1, 5):
        for w in all_perms(n):
            assert rectify(permutation_tableau(w)) == p_symbol(w)


def _all_slide_orders(tab):
    """Rectify along every inner-corner choice sequence."""
    if not tab.is_skew:
        return {tab}
    out = set()
    for corner in inner_corners(tab.inner):
        out |= _all_slide_orders(jdt_slide(tab, corner))
    return out


def test_rectification_is_slide_order_independent_small():
    for outer_size in range(2, 6):
        for outer in partitions(outer_size):
            inners = {
                mu
                for m in range(1, outer_size)
                for mu in partitions(m)
                if len(mu) <= len(outer)
                and all(mu[i] <= outer[i] for i in range(len(mu)))
            }
            for inner in inners:
                for t in standard_tableaux(outer, inner):
                    results = _all_slide_orders(t)
                    assert len(results) == 1
                    assert next(iter(results)) == rectify(t)


# -- permutation tableaux and reading words -----------------------------------

def test_permutation_tableau_and_reading_word():
    t = permutation_tableau((1,))
    assert t == Tableau([[1]]) and not t.is_skew
    pt = permutation_tableau((3, 1, 5, 2, 4))
    assert pt.inner == staircase(5) and pt.outer == (5, 4, 3, 2, 1)
    assert reading_word(pt) == (3, 1, 5, 2, 4)
    for w in all_perms(4):
        assert reading_word(permutation_tableau(w)) == w


def test_reading_word_of_displayed_tableau():
    t = Tableau([[1, 1, 2, 4], [2, 3], [4]])
    assert reading_word(t) == (4, 2, 3, 1, 1, 2, 4)


def test_reading_word_to_tableau():
    t = Tableau([[1, 1, 2, 4], [2, 3], [4]])
    assert reading_word_to_tableau(reading_word(t), t.outer) == t
    assert reading_word_to_tableau((1, 1), (1, 1)) is None  # column not strict
    assert reading_word_to_tableau((1, 2), (2, 1)) is None  # wrong length


# -- evacuation ---------------------------------------------------------------

def test_evacuation_examples():
    single = Tableau([[1]])
    assert evacuation(single) == single
    assert evacuation(Tableau([[1, 3], [2]])) == Tableau([[1, 2], [3]])
    assert evacuation(EMPTY_TABLEAU) == EMPTY_TABLEAU
    with pytest.raises(ValueError):
        evacuation(Tableau([[1, 1]]))


def test_evacuation_involution_small():
    for n in range(1, 8):
        for shape in partitions(n):
            for t in standard_tableaux(shape):
                ev = evacuation(t)
                assert ev == evacuation_by_rectify(t)
                assert evacuation(ev) == t


# -- superstandard tableaux ----------------------------------------------------

def test_superstandard_examples():
    assert superstandard((1, 1, 1)) == Tableau([[1], [2], [3]])
    assert superstandard((2, 2)) == Tableau([[1, 3], [2, 4]])
    assert superstandard(()) == EMPTY_TABLEAU
    with pytest.raises(ValueError):
        superstandard((1, 2))


def _column_decreasing_word(shape):
    cols = conjugate(shape)
    word = []
    start = 0
    for l in cols:
        word.extend(range(start + l, start, -1))
        start += l
    return tuple(word)


def test_superstandard_pair_inverts_to_column_decreasing_permutation():
    for n in range(1, 7):
        for shape in partitions(n):
            t = superstandard(shape)
            assert t.is_standard()
            assert rs_inverse(t, t) == _column_decreasing_word(shape)


# -- transpose -----------------------------------------------------------------

def test_transpose():
    assert Tableau([[1, 2, 3]]).transpose() == Tableau([[1], [2], [3]])
    assert Tableau([[1, 3, 5], [2, 4]]).transpose() == Tableau([[1, 2], [3, 4], [5]])
    for shape in partitions(5):
        for t in standard_tableaux(shape):
            assert t.transpose().outer == conjugate(shape)
            assert t.transpose().transpose() == t


# -- enumeration -----------------------------------------------------------------

def test_standard_tableaux_counts():
    assert sum(1 for _ in standard_tableaux((2, 2))) == 2
    assert sum(1 for _ in standard_tableaux((3, 1))) == 3
    total = sum(len(list(standard_tableaux(s))) for s in partitions(4))
    assert total == 10  # involutions of S_4


def test_semistandard_tableaux_counts():
    # Schur polynomial dimensions at (1,1,1)
    assert sum(1 for _ in semistandard_tableaux((2, 1), 3)) == 8
    assert sum(1 for _ in semistandard_tableaux((1, 1, 1), 3)) == 1
    assert sum(1 for _ in semistandard_tableaux((2,), 2)) == 3
    for t in semistandard_tableaux((2, 2), 3):
        assert t.is_column_strict()
