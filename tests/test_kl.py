import hashlib
import itertools
import os
import random
import sys
import threading
import time
from math import factorial

import pytest

from children import run_child
from kl_entries import computed, expanded_column, read_column, read_mu_list, write_column
from oracles import (
    all_perms,
    bruhat_leq,
    kl_action_q1,
    kl_by_dict_recursion,
    min_coset_rep,
    mu_list,
    sampled_ranks,
)
from rscells.hecke import c_prime
from rscells.kl import KLTable, _ranks, default_table, kl_polynomial, mu, mu_sym
from rscells.permutations import (
    MAX_DEGREE,
    Ranks,
    inverse,
    left_descents,
    length,
    multiply_simple,
    parse_permutation,
    rank_arrays,
    right_descents,
)
from rscells.polynomials import ONE, ZERO, IntPolynomial


def test_all_s3_polynomials_are_trivial():
    tbl = default_table(3)
    for y in all_perms(3):
        for w in all_perms(3):
            expected = ONE if bruhat_leq(y, w) else ZERO
            assert tbl.polynomial(y, w) == expected


def test_small_length_difference_forces_one():
    tbl = default_table(4)
    for y in all_perms(4):
        for w in all_perms(4):
            if bruhat_leq(y, w) and length(w) - length(y) <= 2:
                assert tbl.polynomial(y, w) == ONE


def test_nontrivial_s4_polynomials():
    # frozen from the bar-invariance solve: the nontrivial S_4 values are
    # 1 + q, for y below 1324 under 3412 and y below 2143 under 4231
    expected = {
        ((1, 2, 3, 4), (3, 4, 1, 2)),
        ((1, 3, 2, 4), (3, 4, 1, 2)),
        ((1, 2, 3, 4), (4, 2, 3, 1)),
        ((1, 2, 4, 3), (4, 2, 3, 1)),
        ((2, 1, 3, 4), (4, 2, 3, 1)),
        ((2, 1, 4, 3), (4, 2, 3, 1)),
    }
    got = {}
    for y in all_perms(4):
        for w in all_perms(4):
            p = default_table(4).polynomial(y, w)
            if p.degree > 0:
                got[(y, w)] = p
    assert set(got) == expected
    assert all(p == IntPolynomial((1, 1)) for p in got.values())


def test_zero_for_incomparable_pairs():
    assert kl_polynomial((3, 2, 1), (1, 2, 3)) == ZERO
    assert kl_polynomial((2, 1, 4, 3), (3, 1, 2, 4)) == ZERO


def test_diagonal_is_one():
    for w in all_perms(4):
        assert kl_polynomial(w, w) == ONE


def test_properties_lemma_exhaustive():
    # constant term 1, the degree bound, and inverse symmetry, for n <= 4
    # (n = 5 runs in the acceptance suite)
    tbl = default_table(4)
    for y in all_perms(4):
        for w in all_perms(4):
            p = tbl.polynomial(y, w)
            if not p:
                continue
            assert p.coeff(0) == 1
            if y != w:
                assert 2 * p.degree <= length(w) - length(y) - 1
            assert tbl.polynomial(inverse(y), inverse(w)) == p


def test_recursion_descent_choice_independence():
    # recompute each column pivoting on every available descent
    n = 4
    base = default_table(n)
    for w in all_perms(n):
        lw = length(w)
        for i in sorted(_ldesc(w)):
            v = multiply_simple(w, i, "left")
            muv = [(z, m) for z, m in mu_list(base, v) if i in _ldesc(z)]
            for y in base.support(w):
                sy = multiply_simple(y, i, "left")
                c = 1 if length(sy) < length(y) else 0
                if c:
                    p = base.polynomial(sy, v) + base.polynomial(y, v).shift(1)
                else:
                    p = base.polynomial(sy, v).shift(1) + base.polynomial(y, v)
                for z, m in muv:
                    pyz = base.polynomial(y, z)
                    if pyz:
                        p = p - pyz.shift((lw - length(z)) // 2) * m
                assert p == base.polynomial(y, w), (y, w, i)


def _ldesc(w):
    return right_descents(inverse(w))


def test_mu_examples():
    tbl = default_table(4)
    for y in all_perms(4):
        for w in all_perms(4):
            if bruhat_leq(y, w) and length(w) - length(y) == 1:
                assert tbl.mu(y, w) == 1
    # non-integer exponent (l difference even) is 0 by convention
    assert mu((1, 3, 2, 4), (4, 2, 3, 1)) == 0
    assert kl_polynomial((1, 3, 2, 4), (4, 2, 3, 1)) == ONE
    # mu(s1, s2 s1) = 1: the coset-coatom pairs below
    assert mu((2, 1, 3), (3, 1, 2)) == 1


def test_mu_of_coset_coatoms_is_one():
    # mu(y0 s_i, y0 s_i s_j) = 1 for every minimal coset representative y0
    for n in (3, 4):
        for i, j in itertools.permutations(range(1, n), 2):
            if abs(i - j) != 1:
                continue
            for w in all_perms(n):
                y0 = min_coset_rep(w, i, j)
                a = multiply_simple(y0, i)
                b = multiply_simple(a, j)
                assert mu(a, b) == 1


def test_mu_sym_is_symmetric():
    tbl = default_table(4)
    for y in all_perms(4):
        for w in all_perms(4):
            assert tbl.mu_sym(y, w) == tbl.mu_sym(w, y)


def test_mu_list_matches_pointwise_mu():
    tbl = default_table(4)
    for w in all_perms(4):
        listed = dict(mu_list(tbl, w))
        for z in all_perms(4):
            if z == w:
                continue
            m = tbl.mu(z, w)
            assert listed.get(z, 0) == m, (z, w)


def test_mu_list_refuses_a_mu_that_fits_no_byte():
    # every mu of S_n is 0 or 1 for n <= 9, so a mu list is an array of
    # bytes; a column edited to give a mu outside 0..255 raises and leaves
    # no list behind, rather than storing a truncated value
    tbl = KLTable(4)
    tbl.warm()
    lengths = tbl.ranks.lengths
    w, y = next(
        (w, y)
        for w in range(len(tbl.ranks.perms))
        for y in read_column(tbl, w)
        if lengths[w] - lengths[y] == 3
    )
    for top in (300, -2):
        col = read_column(tbl, w)
        col[y] = IntPolynomial((1, top))
        write_column(tbl, w, col)
        for _ in range(2):
            with pytest.raises(OverflowError):
                tbl._mu_list(w)
            assert tbl._mu_starts[w] == -1
            assert (len(tbl._mu_zs), len(tbl._mu_ms)) == (0, 0)
        assert tbl._mu(y, w) == top


@pytest.mark.parametrize(
    "n",
    [
        8,
        pytest.param(
            9,
            marks=pytest.mark.skipif(
                not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1"
            ),
        ),
    ],
)
def test_column_keys_take_two_bytes_up_to_s8_and_four_at_s9(n):
    # the keys run up to the sentinel n!, which two bytes hold up to 8! = 40,320
    tbl = KLTable(n)
    s1 = tbl.ranks.rank((2, 1) + tuple(range(3, n + 1)))
    lo, hi = tbl._column(s1)
    zs = tbl._mu_list(s1)[0]
    code = "H" if n <= 8 else "I"
    assert (tbl._keys.typecode, zs.typecode) == (code, code)
    # s_1 is the only element below s_1 with the left descent s_1, and the
    # identity its only lower cover
    assert (tbl._keys[lo : hi + 1].tolist(), read_column(tbl, s1)) == ([s1, factorial(n)], {s1: ONE})
    assert read_mu_list(tbl, s1) == ((0, 1),)


def test_degree_mismatch_errors():
    with pytest.raises(ValueError):
        kl_polynomial((1, 2), (1, 2, 3))
    tbl = default_table(3)
    with pytest.raises(ValueError):
        tbl.polynomial((1, 2), (2, 1))


def test_cache_round_trip(tmp_path):
    tbl = KLTable(4, cache_dir=tmp_path)
    tbl.warm()
    tbl.save()
    path = tbl.cache_path()
    assert path.exists()
    first = path.read_bytes()

    fresh = KLTable(4, cache_dir=tmp_path)
    # load() computes every column and checks the file against them
    assert fresh.load() == tbl.entry_count() == fresh.entry_count()
    reference = KLTable(4)
    for y in all_perms(4):
        for w in all_perms(4):
            assert fresh.polynomial(y, w) == reference.polynomial(y, w)

    # warming again reproduces the identical file
    again = KLTable(4, cache_dir=tmp_path)
    again.warm()
    again.save()
    assert path.read_bytes() == first


def test_cache_file_format(tmp_path):
    tbl = KLTable(3, cache_dir=tmp_path)
    tbl.warm()
    tbl.save()
    version, *lines = tbl.cache_path().read_text().splitlines()
    assert version == "#rscells-kl 3 S_3 left"
    # the records alone follow, one per entry, with no trailer
    assert len(lines) == tbl.entry_count() == 8
    for line in lines:
        y, w, coeffs = line.split("\t")
        assert y.isdigit() and w.isdigit()
        assert all(part.lstrip("-").isdigit() for part in coeffs.split(","))
    assert "123\t123\t1" in lines


def test_supports_and_column_keys_match_bruhat_order():
    # guards the interval bitsets and the inlined lookups of the recursion
    # against a silently missing or duplicated entry
    for n in range(1, 6):
        perms = all_perms(n)
        tbl = KLTable(n)
        for w in perms:
            below = {y for y in perms if bruhat_leq(y, w)}
            assert tbl.support(w) == below, w
            assert tbl._support(tbl.ranks.rank(w)).bit_count() == len(below), w
            # a column stores the two-sided extremal y alone
            extremal = {
                y
                for y in below
                if left_descents(w) <= left_descents(y) and right_descents(w) <= right_descents(y)
            }
            column = read_column(tbl, tbl.ranks.rank(w))
            assert {tbl.ranks.perms[y] for y in column} == extremal, w


def _check_interval_tables(tbl, ranks):
    # multiply_simple is the oracle of the swap tables, and the descent
    # masks that of the raised sets; tests/test_permutations.py checks the
    # rank arrays themselves
    n, perms = tbl.n, tbl.ranks.perms
    swaps = tbl._interval_tables()
    assert len(swaps) == max(n - 1, 0)
    for r in ranks:
        for i in range(1, n):
            [moved] = [r + delta for mask, delta in swaps[i - 1] if mask >> r & 1]
            assert perms[moved] == multiply_simple(perms[r], i, "right"), (perms[r], i)
    for wmask in range(1 << max(n - 1, 0)):
        raised = tbl._raised_set(wmask)
        assert raised >> len(perms) == 0, wmask
        for r in ranks:
            assert (raised >> r & 1) == (not wmask & ~tbl.ranks.masks[r]), (wmask, r)


def test_interval_tables_match_permutation_arithmetic():
    # in full up to S_7; bruhat_leq is the oracle of the interval bitsets
    for n in range(1, 8):
        tbl = KLTable(n)
        perms = tbl.ranks.perms
        _check_interval_tables(tbl, range(len(perms)))
        if n > 6:
            continue
        # y <= w in Bruhat order only if y <= w lexicographically
        for r, w in enumerate(perms):
            below = {y for y in range(r + 1) if bruhat_leq(perms[y], w)}
            assert set(_ranks(tbl._support(r))) == below, w


def _check_sampled_interval_tables(n, stride):
    tbl = KLTable(n)
    perms = tbl.ranks.perms
    ranks = sampled_ranks(n, stride)
    _check_interval_tables(tbl, ranks)
    for w in ranks[:: len(ranks) // 8]:
        support = tbl._support(w)
        for y in ranks:
            assert (support >> y & 1) == bruhat_leq(perms[y], perms[w]), (perms[y], perms[w])


def test_interval_tables_match_permutation_arithmetic_on_s8_samples():
    _check_sampled_interval_tables(8, 97)


@pytest.mark.skipif(not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1")
def test_interval_tables_match_permutation_arithmetic_on_s9_samples_long():
    # S_9 nests the blocks one level deeper than any other degree
    _check_sampled_interval_tables(9, 997)


def test_ranks_walks_every_set_bit():
    for bits in (0, 1, 0b1011, 1 << 8, (1 << 64) | 0xF0, (1 << 200) - 1, 0x8000_0001 << 77):
        assert list(_ranks(bits)) == [r for r in range(bits.bit_length()) if bits >> r & 1]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_compact_columns_match_the_dict_recursion(n, side):
    # the table recurses on the left, the oracle on ``side``: the
    # polynomials and mu lists do not depend on the side.  The oracle's
    # column w holds every y <= w raised on ``side``, and the table's those
    # of them whose descent set on the other side contains that of w too
    tbl = KLTable(n)
    tbl.warm()
    columns, mu_lists, lookup = kl_by_dict_recursion(tbl, side)
    other = tbl.ranks.rmasks if side == "left" else tbl.ranks.masks
    extremal = {
        w: {y: p for y, p in column.items() if not other[w] & ~other[y]}
        for w, column in columns.items()
    }
    assert _columns(tbl) == extremal
    ranks = range(len(tbl.ranks.perms))
    assert [read_mu_list(tbl, w) for w in ranks] == [mu_lists[w] for w in ranks]
    for w in ranks:
        assert [tbl._lookup(y, w) for y in ranks] == [lookup(y, w) for y in ranks], w
        # the walk that writes cache files and feeds bar-invariance
        column = expanded_column(tbl, w)
        assert column == {x: lookup(x, w) for x in column}, w


@pytest.mark.skipif(not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1")
def test_lookups_match_the_expanded_columns_on_s7_long():
    # bar-invariance reads its columns by the walk of _expand, so this ties
    # the two-sided raise of _lookup to it at all 3,550,919 pairs x <= w of
    # S_7, in about 7 s
    tbl = KLTable(7)
    reads = 0
    for w in tbl._in_length_order():
        column = expanded_column(tbl, w)
        assert column == {x: tbl._lookup(x, w) for x in column}, w
        reads += len(column)
    assert reads == 3_550_919


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_a_scrambled_order_of_columns_stores_the_same_table(n, tmp_path):
    # the flat stores take each column and mu list when it is computed: in
    # the recursion order of polynomial() queries, by inversion, or in the
    # length order of warm().  A table queried at seeded random pairs first
    # serves the same columns, mu lists, lookups and cache file as one
    # warmed in order
    ordered = KLTable(n, cache_dir=tmp_path / "ordered")
    ordered.warm()
    scrambled = KLTable(n, cache_dir=tmp_path / "scrambled")
    perms = scrambled.ranks.perms
    rng = random.Random(n)
    for _ in range(3 * n):
        scrambled.polynomial(rng.choice(perms), rng.choice(perms))
    scrambled.warm()
    if n >= 4:
        assert scrambled._starts != ordered._starts
        assert scrambled._mu_starts != ordered._mu_starts
    ranks = range(len(perms))
    assert [read_column(scrambled, w) for w in ranks] == [read_column(ordered, w) for w in ranks]
    assert [read_mu_list(scrambled, w) for w in ranks] == [read_mu_list(ordered, w) for w in ranks]
    for w in ranks:
        assert [scrambled._lookup(y, w) for y in ranks] == [ordered._lookup(y, w) for y in ranks]
    scrambled.save()
    ordered.save()
    assert scrambled.cache_path().read_bytes() == ordered.cache_path().read_bytes()


def _two_sided_raise(y, w):
    """y raised on the right through the right descents of w, then on the
    left through the left descents of w, until both hold: P_{y,w} = P_{yt,w} =
    P_{sy,w} for a right descent t and a left descent s of w (du Cloux)."""
    right, left = right_descents(w), left_descents(w)
    while not (right <= right_descents(y) and left <= left_descents(y)):
        while missing := right - right_descents(y):
            y = multiply_simple(y, min(missing), "right")
        while missing := left - left_descents(y):
            y = multiply_simple(y, min(missing), "left")
    return y


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_each_entry_is_the_entry_at_its_two_sided_raise(n):
    # every left-raised entry of the one-sided recursion equals the stored
    # entry at its two-sided raise, and raise_to, which raises on the left
    # and then on the right, reaches the same element as the alternating
    # oracle: the top of the double coset W_L(w) y W_R(w)
    tbl = KLTable(n)
    tbl.warm()
    ranks = tbl.ranks
    perms, masks, rmasks = ranks.perms, ranks.masks, ranks.rmasks
    columns = kl_by_dict_recursion(tbl)[0]
    for w, column in columns.items():
        stored = read_column(tbl, w)
        assert stored.keys() <= column.keys(), perms[w]
        for y, p in column.items():
            x = ranks.raise_to(y, masks[w], rmasks[w])
            assert x == ranks.rank(_two_sided_raise(perms[y], perms[w])), (perms[y], perms[w])
            assert stored[x] == p, (perms[y], perms[w])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_recursion_runs_only_at_two_sided_extremal_entries(n):
    # column w recurses at y by reading P_{s_i y, v} and P_{y, v} from
    # column v = s_i w, each first raised to the descent sets of v; y has
    # the left descent s_i and s_i y lacks it, and the mu terms raise to
    # left descent sets that hold s_i, which that of v lacks
    tbl = KLTable(n)
    columns = kl_by_dict_recursion(tbl)[0]
    raises = []
    # a fresh Ranks records the raises of this table alone: every other
    # table of the degree reads the shared one
    tbl.ranks = ranks = Ranks(n)
    walk = ranks.raise_to

    def raise_to(y, mask, rmask):
        raises.append((y, mask, rmask))
        return walk(y, mask, rmask)

    ranks.raise_to = raise_to
    perms, masks = ranks.perms, ranks.masks
    # in length order every column that column w reads is built before it,
    # and so is column w^-1 where it has the lower rank
    for w in tbl._in_length_order():
        raises.clear()
        tbl._column(w)
        if w == 0:
            continue
        if ranks.inverse[w] < w:
            # built from column w^-1 by inversion, with no recursion
            assert raises == [], perms[w]
            continue
        i = min(left_descents(perms[w]))
        vmask = masks[ranks.rank(multiply_simple(perms[w], i, "left"))]
        recursed = {y for y, mask, _ in raises if mask == vmask and i in left_descents(perms[y])}
        extremal = {y for y in columns[w] if right_descents(perms[w]) <= right_descents(perms[y])}
        assert recursed == extremal, perms[w]


def test_polynomials_are_invariant_under_inversion():
    # P_{y,w} = P_{y^-1,w^-1} (Kazhdan-Lusztig 1979), the identity that
    # builds a column from that of w^-1; the oracle computes every column
    # by the recursion, so it checks the identity independently
    for n in range(1, 6):
        tbl = KLTable(n)
        lookup = kl_by_dict_recursion(tbl)[2]
        perms, inv = tbl.ranks.perms, tbl.ranks.inverse
        for y, w in itertools.product(range(len(perms)), repeat=2):
            p = tbl.polynomial(perms[y], perms[w])
            assert p == tbl.polynomial(perms[inv[y]], perms[inv[w]]), (perms[y], perms[w])
            assert p == lookup(inv[y], inv[w]), (perms[y], perms[w])


def test_klpoly_queries_compute_no_more_columns_than_their_recursion():
    # a column is built from that of w^-1 only when that one is computed
    # already: the one-sided recursion computed 275 columns for these three
    # queries, and inversion must not add any
    tbl = KLTable(7)
    pairs = [("1324576", "4731562"), ("1234567", "7654321"), ("2143576", "5276413")]
    answers = [str(tbl.polynomial(*map(parse_permutation, pair))) for pair in pairs]
    assert answers == ["1 + 2q + 2q^2 + q^3", "1", "1 + q + q^2"]
    assert len(computed(tbl)) <= 275


def test_every_query_rejects_non_permutations():
    tbl = KLTable(3)
    e = (1, 2, 3)
    for bad in ((1, 2), (1, 2, 3, 4), (1, 1, 2), (0, 1, 2), "123", [[1], 2, 3]):
        for query in (tbl.polynomial, tbl.mu, tbl.mu_sym):
            with pytest.raises(ValueError, match="S_3"):
                query(bad, e)
            with pytest.raises(ValueError, match="S_3"):
                query(e, bad)
        for query in (lambda w: mu_list(tbl, w), tbl.support):
            with pytest.raises(ValueError, match="S_3"):
                query(bad)


def test_tables_of_one_degree_share_one_ranks():
    first, second = KLTable(4), KLTable(4)
    assert first.ranks is second.ranks is rank_arrays(4)
    # the factory keeps the last degree only; a table keeps the one it got
    other = KLTable(5)
    assert other.ranks is rank_arrays(5)
    assert KLTable(4).ranks is not first.ranks and first.ranks.n == 4


def test_degree_above_bound_raises_before_enumeration():
    # a table enumerates S_n up front, so the degree is checked first
    big = tuple(range(1, 13))
    malformed = (1,) * 12
    for n in (0, MAX_DEGREE + 1, 12, 20):
        with pytest.raises(ValueError, match="degree"):
            KLTable(n)
    for y in (big, malformed):
        for query in (kl_polynomial, mu, mu_sym):
            with pytest.raises(ValueError):
                query(y, big)
    with pytest.raises(ValueError):
        c_prime(big)
    with pytest.raises(ValueError):
        kl_action_q1(1, malformed)
    # the cache directory is keyword-only
    with pytest.raises(TypeError):
        KLTable(4, "right")


# reference digests of the S_5 cache files: a change to the element or
# column representation or the write order must leave the files
# byte-identical
CACHE_SHA256 = {
    "kl_s5.tsv": "01268f12d23fdc1c6ab27d1f26f1f202c89dcee857dc249e4d63de55105bd0e2",
}
# ... and of the records of the S_5 and S_6 files, the lines after the
# version line, which are the whole files of format 1
RECORDS_SHA256 = {
    "kl_s5.tsv": "311d4f11159f66febbe318c72ea72f4124d7a0d9814ee23ee4b1173651a24e2b",
    "kl_s6.tsv": "82dba142cb15a2a80746e473e54180752e20bac8cd0935badbfcee8a9da930ef",
}
# ... and the digest and size of the whole S_7 file, which warms in about 1 s
CACHE_SHA256_S7 = {
    "kl_s7.tsv": (
        "e87b843dc5bc980df3e88928f81cef6494f4f0c98f0f7d477de3dba064f09dfa", 5_578_369
    ),
}


def test_cache_files_are_byte_identical_to_reference(tmp_path):
    for n in (5, 6, 7):
        tbl = KLTable(n, cache_dir=tmp_path)
        tbl.warm()
        tbl.save()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kl_s5.tsv", "kl_s6.tsv", "kl_s7.tsv"]
    for name, digest in CACHE_SHA256.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
    for name, digest in RECORDS_SHA256.items():
        records = b"".join((tmp_path / name).read_bytes().splitlines(keepends=True)[1:])
        assert hashlib.sha256(records).hexdigest() == digest, name
        assert len(records) == {"5": 9724, "6": 198060}[name[4]], name
    assert (tmp_path / "kl_s5.tsv").stat().st_size == 9747
    for name, (digest, size) in CACHE_SHA256_S7.items():
        data = (tmp_path / name).read_bytes()
        assert len(data) == size, name
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_save_computes_every_column_first(tmp_path):
    # a table that holds one column, or only the identity's, writes all of S_n
    for n in range(1, 7):
        cold = KLTable(n, cache_dir=tmp_path / "cold")
        cold.warm()
        cold.save()
        clean = cold.cache_path().read_bytes()
        w0 = tuple(range(n, 0, -1))
        for k, queried in enumerate([(), [w0]]):
            table = KLTable(n, cache_dir=tmp_path / str(k))
            for w in queried:
                table.polynomial(tuple(range(1, n + 1)), w)
            table.save()
            assert table.cache_path().read_bytes() == clean, (n, queried)
            assert table.entry_count() == cold.entry_count(), (n, queried)


def test_save_leaves_no_temp_file_on_failure(tmp_path):
    tbl = KLTable(3, cache_dir=tmp_path)
    tbl.warm()
    tbl.cache_path().mkdir()  # os.replace cannot overwrite a directory
    with pytest.raises(OSError):
        tbl.save()
    assert [p.name for p in tmp_path.iterdir()] == ["kl_s3.tsv"]


def _columns(tbl):
    return {w: read_column(tbl, w) for w in computed(tbl)}


def _distinct_objects(tbl):
    polys = [p for col in _columns(tbl).values() for p in col.values()]
    return len({id(p) for p in polys}), len({p.coeffs for p in polys})


def test_one_object_per_distinct_polynomial(tmp_path):
    for n in range(1, 6):
        warmed = KLTable(n, cache_dir=tmp_path)
        warmed.warm()
        objects, values = _distinct_objects(warmed)
        assert objects == values, n
        warmed.save()

        loaded = KLTable(n)
        loaded.cache_dir = tmp_path
        assert loaded.load() == warmed.entry_count()
        loaded.warm()
        objects, values = _distinct_objects(loaded)
        assert objects == values, n
        assert _columns(loaded) == _columns(warmed), n


@pytest.mark.parametrize(
    "old, new",
    [
        ("2134\t2134\t1\n", "2134\t2134\t1,0\n"),
        ("2134\t2134\t1\n", "\n2134\t2134\t1\n"),
        ("2134\t2134\t1\n", " \t \n2134\t2134\t1\n"),
    ],
    ids=["trailing-zero", "blank-line", "whitespace-line"],
)
def test_load_refuses_blank_lines_and_trailing_zeros(tmp_path, old, new):
    # save() writes neither, so a file that holds one is not the file of S_4
    tbl = KLTable(4, cache_dir=tmp_path)
    tbl.save()
    path = tbl.cache_path()
    clean = path.read_text()
    lineno = clean.splitlines(keepends=True).index(old) + 1
    path.write_text(clean.replace(old, new))
    with pytest.raises(OSError, match=rf"kl_s4\.tsv:{lineno}: differs from the recomputed S_4"):
        KLTable(4, cache_dir=tmp_path).load()


def test_load_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "kl_s3.tsv"
    path.write_bytes(b"#rscells-kl 3 S_3 left\n123\t123\t1\n123\t213\t\xff\n")
    tbl = KLTable(3, cache_dir=tmp_path)
    assert tbl.polynomial((1, 2, 3), (2, 1, 3)) == ONE
    # line 3 is the record of column 132
    with pytest.raises(OSError, match=r"kl_s3\.tsv:3: differs from the recomputed S_3: '123"):
        tbl.load()


def test_readers_see_complete_files_while_a_writer_saves(tmp_path):
    # save() renames a finished temporary file over the cache file, so a
    # reader racing a writer loads either the old or the new complete file
    writer = KLTable(4, cache_dir=tmp_path)
    writer.warm()
    writer.save()
    records = writer.entry_count()
    stop = threading.Event()
    errors = []

    def write():
        try:
            while not stop.is_set():
                writer.save()
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=write)
    try:
        thread.start()
        deadline = time.monotonic() + 1.0
        loads = 0
        while time.monotonic() < deadline:
            reader = KLTable(4)
            reader.cache_dir = tmp_path
            assert reader.load() == records
            loads += 1
    finally:
        stop.set()
        thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert errors == []
    assert loads > 10
    assert [p.name for p in tmp_path.iterdir()] == ["kl_s4.tsv"]


def _first_difference(edited: bytes, clean: bytes) -> int:
    """The number of the first line of ``edited`` that is not that line of
    ``clean``."""
    pairs = zip(edited.splitlines(keepends=True), clean.splitlines(keepends=True))
    return next((k for k, (a, b) in enumerate(pairs, 1) if a != b), len(clean.splitlines()) + 1)


@pytest.mark.parametrize(
    "old, new",
    [("1324\t3412\t1,1\n", "1324\t3412\t1,2\n"),
     ("1324\t3412\t1,1\n", "1324\t3412\t1,1\n1324\t3412\t1\n")],
    ids=["altered", "repeated"],
)
def test_a_table_reads_no_polynomial_from_its_cache_file(tmp_path, old, new):
    # the file carries no checksum, so only the comparison with the
    # recomputed table finds the edit
    writer = KLTable(4, cache_dir=tmp_path)
    writer.save()
    path = writer.cache_path()
    clean = path.read_bytes()
    path.write_bytes(clean.replace(old.encode(), new.encode()))
    lineno = _first_difference(path.read_bytes(), clean)
    table = KLTable(4, cache_dir=tmp_path)
    assert table.polynomial((1, 3, 2, 4), (3, 4, 1, 2)) == IntPolynomial((1, 1))
    with pytest.raises(OSError, match=rf"kl_s4\.tsv:{lineno}: differs from the recomputed S_4"):
        table.load()
    reference = KLTable(4)
    for y in all_perms(4):
        for w in all_perms(4):
            assert table.polynomial(y, w) == reference.polynomial(y, w), (y, w)


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data.replace(b"\t4321\t1\n", b"\t4321\t1,1\n"),
        # a record after the last one, where format 2 put its trailer
        lambda data: data + b"1234\t1234\t1\n",
        lambda data: data.replace(b"S_4 left", b"S_4 right"),
    ],
    ids=["record", "after-trailer", "side"],
)
def test_load_refuses_a_damaged_file(tmp_path, edit):
    tbl = KLTable(4, cache_dir=tmp_path)
    tbl.save()
    path = tbl.cache_path()
    clean = path.read_bytes()
    edited = edit(clean)
    assert edited != clean
    path.write_bytes(edited)
    lineno = _first_difference(edited, clean)
    loaded = KLTable(4, cache_dir=tmp_path)
    with pytest.raises(OSError, match=rf"kl_s4\.tsv:{lineno}: differs from the recomputed S_4"):
        loaded.load()
    assert loaded.polynomial((1, 3, 2, 4), (3, 4, 1, 2)) == IntPolynomial((1, 1))


def test_load_refuses_an_appended_record(tmp_path):
    tbl = KLTable(4, cache_dir=tmp_path)
    tbl.save()
    path = tbl.cache_path()
    # a repeated record: 59 records for 58 entries
    path.write_text(path.read_text() + "4321\t4321\t1\n")
    loaded = KLTable(4, cache_dir=tmp_path)
    # the records are all where save() writes them, and the repeat follows
    # the last of them
    with pytest.raises(OSError, match=r"kl_s4\.tsv:60: differs from the recomputed S_4: '4321"):
        loaded.load()
    assert loaded.polynomial((1, 2, 3, 4), (4, 3, 2, 1)) == ONE


_S8_WARM = r"""
import hashlib
from rscells.kl import KLTable
table = KLTable(8)
table.warm()
digest = hashlib.sha256()
for w in range(len(table.ranks.perms)):
    zs, ms, lo, hi = table._mu_list(w)
    digest.update(f"{tuple(zip(zs[lo:hi], ms[lo:hi]))}\n".encode())
print(table.entry_count(), digest.hexdigest())
"""

# the sha256 of the S_8 mu lists as _S8_WARM prints them, one line per rank,
# recorded from the recursion that ran at every left-raised entry
S8_MU_SHA256 = "fda5a780776dce4ec8d1b182cd6cc7814b9bb2986da6c6cac8bd45fe298b0475"


@pytest.mark.skipif(not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_s8_warm_peak_memory_long():
    # about 3-4 s at 63 MB after warm() and 66 MB with every mu list, and
    # the bound is that peak plus about 10 %; it was 77 and 89 MB while each
    # column and mu list was a pair of arrays of its own.  The columns and
    # supports of S_8 took 1.06 GB before they were stored compactly and one
    # support length at a time, and 103 and 111 MB before a column stored
    # only its two-sided extremal entries
    proc, peak_mb = run_child(_S8_WARM)
    assert proc.returncode == 0, proc.stderr
    entries, digest = proc.stdout.split()
    assert int(entries) == 9_551_060
    assert digest == S8_MU_SHA256
    assert peak_mb < 73, peak_mb
