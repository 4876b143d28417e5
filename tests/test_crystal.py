import bisect
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rscells.crystal
import rscells.tableaux
from oracles import (
    all_perms,
    component,
    djm_violations_by_tableaux,
    highest_weight_rep_greedy,
    partitions,
    reading_word_to_tableau,
    semistandard_tableaux,
    tensor_e,
    tensor_eps,
    tensor_f,
    tensor_phi,
)
from rscells.crystal import (
    crystal_edges,
    decompose,
    djm_violations,
    e_op,
    eps,
    f_op,
    highest_weight_rep,
    highest_weight_reps,
    phi,
    signature_rule,
)
from rscells.tableaux import Tableau, insert_word, reading_word

words = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.integers(1, 3), min_size=n, max_size=n).map(tuple)
)


def all_words(n, r):
    return itertools.product(range(1, r + 1), repeat=n)


def test_single_letter_operators():
    assert f_op(1, (1,)) == (2,)
    assert f_op(1, (2,)) is None
    assert e_op(1, (2,)) == (1,)
    assert e_op(1, (1,)) is None
    assert phi(1, (1,)) == 1 and eps(1, (1,)) == 0


def test_two_letter_examples():
    assert f_op(1, (1, 1)) == (1, 2)
    assert phi(1, (1, 1)) == 2
    assert f_op(1, (2, 1)) is None
    assert e_op(1, (2, 1)) is None
    # the f-string through (1,1): 1x1 -> 1x2 -> 2x2 -> null
    assert f_op(1, (1, 2)) == (2, 2)
    assert f_op(1, (2, 2)) is None


def test_operator_index_validation():
    with pytest.raises(ValueError):
        f_op(0, (1, 2))
    with pytest.raises(ValueError):
        eps(-1, (1,))


def test_partial_inverse_exhaustive():
    for n in range(1, 6):
        for b in all_words(n, 3):
            for i in (1, 2):
                fb = f_op(i, b)
                if fb is not None:
                    assert e_op(i, fb) == b
                eb = e_op(i, b)
                if eb is not None:
                    assert f_op(i, eb) == b


@given(words, st.integers(1, 2))
def test_partial_inverse_random(b, i):
    fb = f_op(i, b)
    if fb is not None:
        assert e_op(i, fb) == b


def test_signature_rule_examples():
    assert signature_rule(1, (1, 1)) == (None, 1)
    assert signature_rule(1, (2, 1)) == (None, None)
    assert signature_rule(1, (1, 2)) == (1, 0)


def test_signature_rule_matches_recursive_operators():
    for r, max_n in ((3, 5), (4, 4)):
        for n in range(1, max_n + 1):
            for b in all_words(n, r):
                for i in range(1, r):
                    e_pos, f_pos = signature_rule(i, b)
                    fb = tensor_f(i, b)
                    if f_pos is None:
                        assert fb is None
                    else:
                        assert fb == b[:f_pos] + (i + 1,) + b[f_pos + 1 :]
                    eb = tensor_e(i, b)
                    if e_pos is None:
                        assert eb is None
                    else:
                        assert eb == b[:e_pos] + (i,) + b[e_pos + 1 :]
                    assert (f_op(i, b), e_op(i, b)) == (fb, eb)
                    assert (eps(i, b), phi(i, b)) == (tensor_eps(i, b), tensor_phi(i, b))


def test_sl2_string_bookkeeping():
    # phi - eps drops by 2 along an f_i-step
    for n in range(1, 5):
        for b in all_words(n, 3):
            for i in (1, 2):
                fb = f_op(i, b)
                if fb is not None:
                    before = phi(i, b) - eps(i, b)
                    after = phi(i, fb) - eps(i, fb)
                    assert after == before - 2


def test_component_examples():
    assert component((2, 1), 2) == frozenset({(2, 1)})
    assert component((1, 1), 2) == frozenset({(1, 1), (1, 2), (2, 2)})
    with pytest.raises(ValueError):
        component((3, 1), 2)


def test_components_have_unique_highest_weight():
    n = r = 4
    seen = set()
    for b in all_words(n, r):
        if b in seen:
            continue
        comp = component(b, r)
        seen.update(comp)
        hw = [x for x in comp if all(eps(i, x) == 0 for i in range(1, r))]
        assert len(hw) == 1
        assert highest_weight_rep(b, r) == hw[0]


def test_highest_weight_reps_match_the_greedy_walk():
    cases = [(all_perms(n), n) for n in range(1, 7)]
    cases += [(list(all_words(n, r)), r) for n in range(1, 5) for r in range(1, 5)]
    # words of every length up to 4 in one call, shortest first and then
    # longest first: the walk must keep words of different lengths apart
    # whose letters read as the same number
    for r in (1, 2, 3):
        mixed = [w for n in range(1, 5) for w in all_words(n, r)]
        cases += [(mixed, r), (mixed[::-1], r)]
    for words, r in cases:
        want = [highest_weight_rep_greedy(word, r) for word in words]
        assert highest_weight_reps(words, r) == want
        assert [highest_weight_rep(word, r) for word in words[:50]] == want[:50]


def test_highest_weight_rep_checks_its_word():
    for word, r in (((), 2), ((3, 1), 2), ((1, 0), 2)):
        with pytest.raises(ValueError):
            highest_weight_rep(word, r)


def test_decompose_examples():
    # B itself is connected: one component holding every letter, Q = [[1]]
    comps = decompose(1, 3)
    assert len(comps) == 1
    assert comps[0].words == frozenset({(1,), (2,), (3,)})
    assert comps[0].q_symbol == Tableau([[1]])
    comps = decompose(2, 2)
    by_label = {c.label: c for c in comps}
    assert set(by_label) == {(1, 1), (2, 1)}
    assert by_label[(1, 1)].words == frozenset({(1, 1), (1, 2), (2, 2)})
    assert by_label[(1, 1)].q_symbol == Tableau([[1, 2]])
    assert by_label[(2, 1)].words == frozenset({(2, 1)})
    assert by_label[(2, 1)].q_symbol == Tableau([[1], [2]])


def test_decompose_q_constancy():
    for n in range(1, 6):
        decompose(n, n)  # raises on a violation


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_decompose_matches_the_tuple_search(n, r):
    expected = []
    seen = set()
    for word in all_words(n, r):
        if word not in seen:
            words = component(word, r)
            seen |= words
            q = insert_word(word)[1]
            expected.append((word, words, q, q.outer))
    got = [(c.label, c.words, c.q_symbol, c.shape) for c in decompose(n, r)]
    assert got == expected


def test_decompose_check_sees_a_recording_tableau_that_varies(monkeypatch):
    # give the last word, 222 in the component of 111, a recording code of
    # its own
    symbols = rscells.crystal._symbols

    def poisoned(n, r):
        pidx, qcode, prows, pindex = symbols(n, r)
        qcode[-1] += 1
        return pidx, qcode, prows, pindex

    monkeypatch.setattr(rscells.crystal, "_symbols", poisoned)
    with pytest.raises(AssertionError, match=r"component of \(1, 1, 1\)"):
        decompose(3, 2)


def test_decompose_bounds():
    with pytest.raises(ValueError):
        decompose(12, 12)


def test_reading_round_trip_small_tableaux():
    for size in range(1, 6):
        for shape in partitions(size):
            for t in semistandard_tableaux(shape, 3):
                assert insert_word(reading_word(t))[0] == t


def test_reading_words_stable_under_operators():
    # image of B(lambda) is closed under e_i and f_i, preserving the shape
    for size in range(1, 6):
        for shape in partitions(size):
            for t in semistandard_tableaux(shape, 3):
                word = reading_word(t)
                for i in (1, 2):
                    for op in (e_op, f_op):
                        nxt = op(i, word)
                        if nxt is None:
                            continue
                        t2 = reading_word_to_tableau(nxt, shape)
                        assert t2 is not None and t2.is_column_strict()


def test_djm_small():
    cases, violations = djm_violations(3, 3)
    assert cases == 27 and violations == []


@pytest.mark.parametrize(
    "n, r", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (3, 2), (4, 3), (2, 4)]
)
def test_djm_violations_match_the_tableau_oracle(n, r):
    assert djm_violations(n, r) == djm_violations_by_tableaux(n, r)


@pytest.mark.parametrize("n, r", [(3, 3), (4, 3), (4, 4)])
def test_djm_violations_match_the_tableau_oracle_on_a_poisoned_bump(monkeypatch, n, r):
    # a bump that replaces an equal entry breaks all three checks, in the
    # library's prefix walk and in the oracle's insert_word alike
    monkeypatch.setattr(rscells.tableaux, "bisect_right", bisect.bisect_left)
    cases, violations = djm_violations(n, r)
    assert violations
    assert (cases, violations) == djm_violations_by_tableaux(n, r)


def test_djm_violations_bounds():
    for n, r in ((0, 2), (2, 0)):
        with pytest.raises(ValueError):
            djm_violations(n, r)


def test_word_symbols():
    p, q = insert_word((2, 1, 2, 2))
    assert p.is_column_strict() and q.is_standard()
    assert p.outer == q.outer


def test_crystal_edges_export():
    edges = crystal_edges(2, 2)
    assert ((1, 1), 1, (1, 2)) in edges
    assert all(f_op(i, a) == b for a, i, b in edges)


def test_crystal_edges_are_every_f_step_in_order():
    for n, r in ((3, 3), (2, 4), (4, 2)):
        expected = [
            (b, i, f_op(i, b))
            for b in all_words(n, r)
            for i in range(1, r)
            if f_op(i, b) is not None
        ]
        assert crystal_edges(n, r) == expected
