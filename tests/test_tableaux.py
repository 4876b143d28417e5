import itertools
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rscells.tableaux
from oracles import (
    EMPTY_TABLEAU,
    SkewTableau,
    all_perms,
    column_strict_fillings,
    conjugate,
    evacuation_by_rectify,
    inner_corners,
    involution_count,
    is_partition,
    jdt_slide,
    partitions,
    permutation_tableau,
    reading_word_to_tableau,
    rectify,
    semistandard_tableaux,
    staircase,
    standard_tableaux,
)
from rscells.permutations import Ranks, all_permutations, identity, inverse
from rscells.tableaux import (
    Tableau,
    _symbols,
    evacuation,
    insert_word,
    p_symbol,
    q_code,
    q_symbol,
    q_tableau,
    reading_word,
    rs_inverse,
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
    with pytest.raises(ValueError, match=r"^column 1 decreases between rows 1 and 2$"):
        Tableau([[2, 3], [1]])
    with pytest.raises(ValueError, match=r"^column 2 decreases between rows 2 and 3$"):
        Tableau([[1, 1], [2, 3], [2, 2]])
    with pytest.raises(ValueError):
        Tableau([[1], [1, 2]])  # not a partition
    with pytest.raises(ValueError):
        Tableau([[0]])
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="is not a positive integer"):
            Tableau([[1], [bad]])
    t = Tableau([[1, 3], [2]])
    assert t.outer == (2, 1) and t.size == 3


def test_skew_tableau_validation():
    # the oracles' skew type makes its own row, column and shape checks
    with pytest.raises(ValueError, match=r"^column 2 decreases between rows 2 and 3$"):
        SkewTableau.from_rows([[1], [3], [2, 2]], inner=(1, 1))
    with pytest.raises(ValueError):
        SkewTableau.from_rows([[1]], inner=(1, 1))
    with pytest.raises(ValueError):
        SkewTableau.from_rows([[2], [1, 1]], inner=(1,))  # not a skew shape
    with pytest.raises(ValueError):
        SkewTableau((1, 2), {(1, 2): 1})  # inner shape not a partition
    with pytest.raises(ValueError):
        SkewTableau((1,), {(1, 3): 1})  # row not contiguous
    with pytest.raises(ValueError):
        SkewTableau((1,), {(1, 2): 2, (1, 3): 1})  # row decreases
    with pytest.raises(ValueError):
        SkewTableau((1,), {(1, 2): True})
    skew = SkewTableau.from_rows([[2], [1]], inner=(1,))
    assert skew.inner == (1,) and skew.outer == (2, 1)
    assert skew.cells == {(1, 2): 2, (2, 1): 1}
    # a row that lies wholly in the inner shape
    assert SkewTableau((2, 1), {(1, 3): 1, (3, 1): 1}).outer == (3, 1, 1)


def test_tableau_kinds():
    assert Tableau([[1, 1], [2]]).is_column_strict()
    assert not Tableau([[1, 1], [2]]).is_row_strict()
    assert Tableau([[1, 3], [2]]).is_standard()
    assert not Tableau([[1, 1], [2]]).is_standard()
    assert EMPTY_TABLEAU.is_standard()


def test_tableau_json_round_trip():
    t = Tableau([[1, 2, 4], [3, 5]])
    assert Tableau.from_json(t.to_json()) == t
    assert Tableau.from_json({"rows": []}) == EMPTY_TABLEAU
    for bad in (
        {"cols": []},
        {"rows": [[2], [1]], "inner": [1]},
        {"rows": 5},
        {"rows": [1, 2]},
        {"rows": [[1], (2,)]},
        {"rows": [[True]]},
        [[1]],
    ):
        with pytest.raises(ValueError):
            Tableau.from_json(bad)


def test_render():
    assert Tableau([[1, 2, 4], [3, 5]]).render() == "1 2 4\n3 5"
    assert EMPTY_TABLEAU.render() == ""


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
    # hand-run bumping trace of the last letter: 3 bumps 4, 4 bumps 5, and
    # 5 starts a new row
    assert insert_word((3, 1, 5, 2, 4, 3)) == (
        Tableau([[1, 2, 3], [3, 4], [5]]),
        Tableau([[1, 3, 5], [2, 4], [6]]),
    )


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rs_inverse_inverts_insert_word(n):
    # rs_inverse pops the largest entry of Q from the end of its row with no
    # corner check: Q is standard, so that entry always ends its row
    for w in all_perms(n):
        assert rs_inverse(*insert_word(w)) == w


@given(perm_strategy)
def test_rs_round_trip_random(w):
    assert rs_inverse(p_symbol(w), q_symbol(w)) == w


# -- the prefix-tree walk -------------------------------------------------------

def _code_of(q, n):
    """The Q code of a recording tableau, digit by digit."""
    row = {t: x for x, entries in enumerate(q.rows) for t in entries}
    return sum(row[t] * n ** (n - t) for t in range(1, n + 1))


_LONG = pytest.mark.skipif(
    not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1"
)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=_LONG)])
def test_symbol_walk_matches_insert_word(n):
    pidx, qcode, prows, pindex = _symbols(n, n, permutations=True)
    perms = all_perms(n)
    assert len(pidx) == len(qcode) == len(perms)
    assert [pindex[rows] for rows in prows] == list(range(len(prows)))
    for w, p, code in zip(perms, pidx, qcode):
        ptab, qtab = insert_word(w)
        assert prows[p] == ptab.rows
        assert code == _code_of(qtab, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symbol_walk_matches_rectification(n):
    pidx, qcode, prows, _ = _symbols(n, n, permutations=True)
    for w, p, code in zip(all_perms(n), pidx, qcode):
        assert prows[p] == rectify(permutation_tableau(w)).rows
        assert q_tableau(code, n) == rectify(permutation_tableau(inverse(w)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symbol_walk_is_in_table_rank_order(n):
    # rank r of the walk is rank r of Ranks(n), which KLTable(n) reads: RS
    # inverse of its two symbols gives that permutation back
    perms = Ranks(n).perms
    assert perms == list(all_permutations(n))
    pidx, qcode, prows, _ = _symbols(n, n, permutations=True)
    for r, w in enumerate(perms):
        assert rs_inverse(Tableau(prows[pidx[r]]), q_tableau(qcode[r], n)) == w


def test_symbol_walk_is_kept_and_cannot_be_edited():
    pidx, qcode, prows, _ = walk = _symbols(4, 4, permutations=True)
    assert _symbols(4, 4, permutations=True) is walk
    for seq in (pidx, qcode, prows):
        with pytest.raises(TypeError):
            seq[-1] += 1


def test_symbol_walk_on_words_matches_insert_word():
    for n, r in ((1, 3), (3, 3), (4, 2), (2, 4)):
        pidx, qcode, prows, _ = _symbols(n, r)
        words = list(itertools.product(range(1, r + 1), repeat=n))
        assert len(pidx) == len(words)
        for word, p, code in zip(words, pidx, qcode):
            ptab, qtab = insert_word(word)
            assert (prows[p], code) == (ptab.rows, _code_of(qtab, n))


def test_q_code_round_trips_every_standard_tableau():
    for n in range(0, 7):
        codes = set()
        for shape in partitions(n):
            for t in standard_tableaux(shape):
                code = q_code(t)
                assert code == _code_of(t, n)
                assert q_tableau(code, n) == t
                codes.add(code)
        assert len(codes) == involution_count(n)


def test_q_code_rejects_what_is_not_a_standard_tableau():
    with pytest.raises(ValueError):
        q_code(Tableau([[1, 1]]))
    assert q_tableau(0, 0) == EMPTY_TABLEAU
    for code, n in ((-1, 3), (27, 3), (1, 1)):
        with pytest.raises(ValueError):
            q_tableau(code, n)
    # entry 1 in row 2, entry 2 above entry 3 in the second column, and a
    # second row longer than the first
    for digits in ((1, 0, 0), (0, 1, 1, 0), (0, 1, 1)):
        n = len(digits)
        with pytest.raises(ValueError):
            q_tableau(sum(x * n ** (n - 1 - k) for k, x in enumerate(digits)), n)


# -- jeu de taquin ------------------------------------------------------------

def test_rectify_of_straight_tableau_is_identity():
    t = Tableau([[1, 2], [3]])
    assert rectify(SkewTableau.from_rows(t.rows, inner=())) == t


def test_jdt_slide_rejects_bad_holes():
    skew = SkewTableau.from_rows([[2], [1]], inner=(1,))
    with pytest.raises(ValueError):
        jdt_slide(skew, (2, 1))
    with pytest.raises(ValueError):
        jdt_slide(SkewTableau((), {(1, 1): 1, (1, 2): 2}), (1, 1))
    with pytest.raises(ValueError):
        jdt_slide(SkewTableau.from_rows([[1], [1, 1]], inner=(1,)), (1, 1))  # not column-strict
    slid = jdt_slide(skew, (1, 1))
    assert slid.inner == () and slid.cells == {(1, 1): 1, (1, 2): 2}


def test_rectify_permutation_tableaux_small():
    for n in range(1, 5):
        for w in all_perms(n):
            assert rectify(permutation_tableau(w)) == p_symbol(w)


def _all_slide_orders(tab):
    """Rectify along every inner-corner choice sequence."""
    if not tab.inner:
        return {tab.to_tableau()}
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
    assert not t.inner and t.to_tableau() == Tableau([[1]])
    pt = permutation_tableau((3, 1, 5, 2, 4))
    assert pt.inner == staircase(5) and pt.outer == (5, 4, 3, 2, 1)
    assert pt.reading_word() == (3, 1, 5, 2, 4)
    for w in all_perms(4):
        assert permutation_tableau(w).reading_word() == w


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


def test_evacuation_oracle_does_not_slide_with_the_library(monkeypatch):
    # evacuation_by_rectify must not reach the sliding loop of evacuation
    tableaux = [
        t for n in range(1, 6) for shape in partitions(n) for t in standard_tableaux(shape)
    ]
    expected = [evacuation_by_rectify(t) for t in tableaux]

    def fail(*args):
        raise AssertionError("the oracle called rscells.tableaux._slide")

    monkeypatch.setattr(rscells.tableaux, "_slide", fail)
    assert [evacuation_by_rectify(t) for t in tableaux] == expected


# -- transpose -----------------------------------------------------------------

def test_transpose():
    assert Tableau([[1, 2, 3]]).transpose() == Tableau([[1], [2], [3]])
    assert Tableau([[1, 3, 5], [2, 4]]).transpose() == Tableau([[1, 2], [3, 4], [5]])
    for shape in partitions(5):
        for t in standard_tableaux(shape):
            assert t.transpose().outer == conjugate(shape)
            assert t.transpose().transpose() == t


def test_row_code_on_the_empty_tableau_a_row_and_a_column():
    # the slide leaves empty rows behind, and the transpose reads columns
    # of every length, none included
    empty = Tableau([])
    assert empty.transpose() == empty and evacuation(empty) == empty
    assert rs_inverse(empty, empty) == ()
    for n in range(1, 7):
        row = Tableau([range(1, n + 1)])
        column = Tableau([[e] for e in range(1, n + 1)])
        assert row.transpose() == column and column.transpose() == row
        # each shape has one standard filling, which evacuation must keep
        assert evacuation(row) == row and evacuation(column) == column
        assert rs_inverse(row, row) == identity(n)
        assert rs_inverse(column, column) == tuple(range(n, 0, -1))
    # rows and columns that only weakly increase
    assert Tableau([[1, 1, 2], [2, 3]]).transpose() == Tableau([[1, 2], [1, 3], [2]])


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


def test_semistandard_tableaux_match_brute_force():
    for size in range(0, 6):
        for shape in partitions(size):
            for max_entry in (1, 2, 3):
                got = list(semistandard_tableaux(shape, max_entry))
                assert got == [t.to_tableau() for t in column_strict_fillings(shape, max_entry)]
