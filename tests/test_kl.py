import hashlib
import itertools
import os
import subprocess
import sys
import threading
import time
from math import factorial

import pytest

import rscells
from cache_files import resign, sign
from kl_entries import read_column
from oracles import (
    all_perms,
    bruhat_leq,
    kl_action_q1,
    kl_by_dict_recursion,
    min_coset_rep,
    mu_list,
)
from rscells.hecke import c_prime
from rscells.kl import MAX_DEGREE, KLTable, _ranks, default_table, kl_polynomial, mu, mu_sym
from rscells.permutations import (
    inverse,
    left_descents,
    length,
    multiply_simple,
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
    # columns are parsed on first use, so parse them all to count them
    assert fresh.parse_stored() == tbl.entry_count() == fresh.entry_count()
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
    version, *lines, trailer = tbl.cache_path().read_text().splitlines()
    assert version == "#rscells-kl 2 S_3 left"
    listing = "#end 8 123:23,132:33,213:43,231:53,312:73,321:93 "
    assert trailer.startswith(listing)
    signed = "".join(f"{line}\n" for line in [version, *lines]) + listing
    digest = hashlib.sha256(signed.encode())
    assert trailer == listing + digest.hexdigest()
    assert lines, "cache file should not be empty"
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
            assert tbl._support(tbl._rank(w)).bit_count() == len(below), w
            raised = {y for y in below if left_descents(w) <= left_descents(y)}
            column = read_column(tbl, tbl._rank(w))
            assert {tbl.perms[y] for y in column} == raised, w


def _check_rank_tables(tbl, ranks):
    # multiply_simple is the oracle of the step, right step and swap tables,
    # the descent sets that of the masks, and the descent masks that of the
    # raised sets; every rank the tables hold is one of the shared ints
    n, ints = tbl.n, tbl._ints
    swaps = tbl._interval_tables()
    assert len(swaps) == max(n - 1, 0)
    rsteps, rmasks = tbl._rsteps, tbl._rmasks
    for r in ranks:
        w = tbl.perms[r]
        assert tbl._index[w] is ints[r]
        assert tbl._lengths[r] == length(w)
        assert tbl.perms[tbl._inverse[r]] == inverse(w)
        assert tbl._masks[r] == sum(1 << (i - 1) for i in left_descents(w))
        assert rmasks[r] == sum(1 << (i - 1) for i in right_descents(w))
        for i in range(1, n):
            assert tbl.perms[tbl._steps[i - 1][r]] == multiply_simple(w, i, "left")
            right = multiply_simple(w, i, "right")
            moved = rsteps[i - 1][r]
            assert tbl.perms[moved] == right and moved is ints[moved], (w, i)
            [moved] = [r + delta for mask, delta in swaps[i - 1] if mask >> r & 1]
            assert tbl.perms[moved] == right, (w, i)
    for wmask in range(1 << max(n - 1, 0)):
        raised = tbl._raised_set(wmask)
        assert raised >> len(tbl.perms) == 0, wmask
        for r in ranks:
            assert (raised >> r & 1) == (not wmask & ~tbl._masks[r]), (wmask, r)


def _sampled_ranks(n, stride):
    # every stride-th rank, with a prime stride that meets every place of
    # the blocks of (n - i + 1)! ranks shorter than it, plus the first and
    # last rank of each longer block
    size = factorial(n)
    ranks = set(range(0, size, stride))
    for i in range(1, n):
        block = factorial(n - i + 1)
        if block >= stride:
            for start in range(0, size, block):
                ranks |= {start, start + block - 1}
    return sorted(ranks)


def test_rank_tables_match_permutation_arithmetic():
    # in full up to S_7; bruhat_leq is the oracle of the interval bitsets
    for n in range(1, 8):
        perms = sorted(all_perms(n))
        tbl = KLTable(n)
        assert tbl.perms == perms
        _check_rank_tables(tbl, range(len(perms)))
        if n > 6:
            continue
        # y <= w in Bruhat order only if y <= w lexicographically
        for r, w in enumerate(perms):
            below = {y for y in range(r + 1) if bruhat_leq(perms[y], w)}
            assert set(_ranks(tbl._support(r))) == below, w


def _check_sampled_rank_tables(n, stride):
    tbl = KLTable(n)
    perms = tbl.perms
    assert len(perms) == factorial(n) and all(a < b for a, b in zip(perms, perms[1:]))
    ranks = _sampled_ranks(n, stride)
    assert all(sorted(perms[r]) == list(range(1, n + 1)) for r in ranks)
    _check_rank_tables(tbl, ranks)
    for w in ranks[:: len(ranks) // 8]:
        support = tbl._support(w)
        for y in ranks:
            assert (support >> y & 1) == bruhat_leq(perms[y], perms[w]), (perms[y], perms[w])


def test_rank_tables_match_permutation_arithmetic_on_s8_samples():
    _check_sampled_rank_tables(8, 97)


@pytest.mark.skipif(not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1")
def test_rank_tables_match_permutation_arithmetic_on_s9_samples_long():
    # S_9 nests the blocks one level deeper than any other degree
    _check_sampled_rank_tables(9, 997)


def test_ranks_walks_every_set_bit():
    for bits in (0, 1, 0b1011, 1 << 8, (1 << 64) | 0xF0, (1 << 200) - 1, 0x8000_0001 << 77):
        assert list(_ranks(bits)) == [r for r in range(bits.bit_length()) if bits >> r & 1]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_compact_columns_match_the_dict_recursion(n, side):
    # the table recurses on the left, the oracle on ``side``: the
    # polynomials and mu lists do not depend on the side, the raised
    # entries a column stores do
    tbl = KLTable(n)
    tbl.warm()
    columns, mu_lists, lookup = kl_by_dict_recursion(tbl, side)
    if side == "left":
        assert _columns(tbl) == columns
    ranks = range(len(tbl.perms))
    assert [tbl._mu_list(w) for w in ranks] == [mu_lists[w] for w in ranks]
    for w in ranks:
        assert [tbl._lookup(y, w) for y in ranks] == [lookup(y, w) for y in ranks], w


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
    tbl = KLTable(n)
    tbl.warm()
    perms = tbl.perms
    columns = kl_by_dict_recursion(tbl)[0]
    for w, column in columns.items():
        stored = read_column(tbl, w)
        assert stored.keys() == column.keys(), perms[w]
        for y, p in stored.items():
            x = tbl._rank(_two_sided_raise(perms[y], perms[w]))
            assert x in column and p == column[x], (perms[y], perms[w])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_recursion_runs_only_at_two_sided_extremal_entries(n):
    # column w recurses at y by reading P_{s_i y, v} and P_{y, v} from
    # column v = s_i w, each first raised to the left descents of v; y has
    # the descent s_i and s_i y lacks it, and the mu terms raise to descent
    # sets that hold s_i, which those of v lack
    tbl = KLTable(n)
    columns = kl_by_dict_recursion(tbl)[0]
    raises = []

    def raise_to(y, mask):
        raises.append((y, mask))
        return KLTable._raise_to(tbl, y, mask)

    tbl._raise_to = raise_to
    perms, masks = tbl.perms, tbl._masks
    # in length order every column that column w reads is built before it
    for w in tbl._in_length_order():
        raises.clear()
        tbl._column(w)
        if w == 0:
            continue
        i = min(left_descents(perms[w]))
        vmask = masks[tbl._rank(multiply_simple(perms[w], i, "left"))]
        recursed = {y for y, mask in raises if mask == vmask and i in left_descents(perms[y])}
        extremal = {y for y in columns[w] if right_descents(perms[w]) <= right_descents(perms[y])}
        assert recursed == extremal, perms[w]


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
    "kl_s5.tsv": "ae4838b0afcaf146fb1aa85076d70900013bea8dfd12c3e22d603b1f28f530f3",
}
# ... and of the records of the S_5 and S_6 files, the lines between the
# version line and the trailer, which are the whole files of format 1
RECORDS_SHA256 = {
    "kl_s5.tsv": "311d4f11159f66febbe318c72ea72f4124d7a0d9814ee23ee4b1173651a24e2b",
    "kl_s6.tsv": "82dba142cb15a2a80746e473e54180752e20bac8cd0935badbfcee8a9da930ef",
}
# ... and the digest and size of the whole S_7 file, which warms in about 1 s
CACHE_SHA256_S7 = {
    "kl_s7.tsv": (
        "47ba367f8adcf064fbd2c4f937b3ce5acb68cc7e39ef22b7730843f3256b770f", 5_655_736
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
        records = b"".join((tmp_path / name).read_bytes().splitlines(keepends=True)[1:-1])
        assert hashlib.sha256(records).hexdigest() == digest, name
        assert len(records) == {"5": 9724, "6": 198060}[name[4]], name
    assert (tmp_path / "kl_s5.tsv").stat().st_size == 11103
    for name, (digest, size) in CACHE_SHA256_S7.items():
        data = (tmp_path / name).read_bytes()
        assert len(data) == size, name
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_save_after_a_lazy_load_matches_a_cold_save(tmp_path):
    for n in range(1, 7):
        cold = KLTable(n, cache_dir=tmp_path)
        cold.warm()
        cold.save()
        clean = cold.cache_path().read_bytes()
        loaded = KLTable(n, cache_dir=tmp_path)
        loaded.warm()
        loaded.save()
        assert loaded.cache_path().read_bytes() == clean, n
        # save() writes the stored columns that were never parsed, too
        unparsed = KLTable(n, cache_dir=tmp_path)
        unparsed.save()
        assert unparsed.cache_path().read_bytes() == clean, n


def test_save_leaves_no_temp_file_on_failure(tmp_path):
    tbl = KLTable(3, cache_dir=tmp_path)
    tbl.warm()
    tbl.cache_path().mkdir()  # os.replace cannot overwrite a directory
    with pytest.raises(OSError):
        tbl.save()
    assert [p.name for p in tmp_path.iterdir()] == ["kl_s3.tsv"]


def _columns(tbl):
    return {w: read_column(tbl, w) for w in tbl._columns}


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


def test_load_skips_blank_lines_and_normalizes_trailing_zeros(tmp_path):
    path = tmp_path / "kl_s4.tsv"
    path.write_text("#rscells-kl 2 S_4 left\n1234\t1234\t1\n \t \n\n1234\t2134\t1,0\n")
    resign(path)
    tbl = KLTable(4)
    tbl.cache_dir = tmp_path
    assert tbl.load() == 2
    assert tbl.parse_stored() == 2
    e, s1 = tbl._rank((1, 2, 3, 4)), tbl._rank((2, 1, 3, 4))
    assert read_column(tbl, s1)[e] == ONE
    assert read_column(tbl, s1)[e] is read_column(tbl, e)[e]


def test_load_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "kl_s3.tsv"
    path.write_bytes(b"#rscells-kl 2 S_3 left\n123\t123\t1\n123\t213\t\xff\n")
    resign(path)
    tbl = KLTable(3, cache_dir=tmp_path)
    # the record is checked when its column is first asked for
    with pytest.raises(OSError, match=r"kl_s3\.tsv:3:"):
        tbl.polynomial((1, 2, 3), (2, 1, 3))


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
            assert reader.parse_stored() == records
            loads += 1
    finally:
        stop.set()
        thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert errors == []
    assert loads > 10
    assert [p.name for p in tmp_path.iterdir()] == ["kl_s4.tsv"]


def test_a_loaded_table_serves_its_snapshot_after_the_file_is_replaced(tmp_path):
    writer = KLTable(4, cache_dir=tmp_path)
    writer.warm()
    writer.save()
    path = writer.cache_path()
    clean = path.read_text()
    loaded = KLTable(4, cache_dir=tmp_path)
    # another writer replaces the file with different, validly signed content
    path.write_text(clean.replace("1324\t3412\t1,1\n", "1324\t3412\t1\n"))
    resign(path)
    assert KLTable(4, cache_dir=tmp_path).polynomial((1, 3, 2, 4), (3, 4, 1, 2)) == ONE
    assert loaded.polynomial((1, 3, 2, 4), (3, 4, 1, 2)) == IntPolynomial((1, 1))
    assert loaded.parse_stored() == writer.entry_count()


def _unsigned(data: bytes) -> bytes:
    return data[: data.rindex(b" ") + 1]


_BAD_TRAILER = r"tsv:60: bad trailer for S_4"
_UNTILED = r"tsv: the column offsets of the trailer do not tile the records"


@pytest.mark.parametrize(
    "edit, message",
    [
        # edits of a signed file
        (lambda data: _unsigned(data) + b"0" * 64 + b"\n", r"tsv: checksum mismatch"),
        (lambda data: data.replace(b"\t4321\t1\n", b"\t4321\t1,1\n"), r"tsv: checksum mismatch"),
        (lambda data: data + b"1234\t1234\t1\n", r"tsv:61: no trailer"),
        (lambda data: data.replace(b"S_4 left", b"S_4 right"), r"tsv:1: not a format-2"),
        # edits of the trailer, signed again
        (lambda data: sign(_unsigned(data).replace(b"#end 58 ", b"#end x ")), _BAD_TRAILER),
        (lambda data: sign(_unsigned(data).replace(b",1243:", b",1244:")), _BAD_TRAILER),
        (lambda data: sign(_unsigned(data).replace(b" 1234:23,", b" ")), _UNTILED),
        (lambda data: sign(_unsigned(data).replace(b",1342:71,", b",1342:72,")), _UNTILED),
        (lambda data: sign(_unsigned(data).replace(b",2134:", b",1243:")), _UNTILED),
    ],
    ids=["checksum", "record", "after-trailer", "side", "count", "column-name",
         "first-column-missing", "mid-line-offset", "duplicate-column"],
)
def test_load_refuses_a_damaged_file(tmp_path, edit, message):
    tbl = KLTable(4, cache_dir=tmp_path)
    tbl.warm()
    tbl.save()
    path = tbl.cache_path()
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(OSError, match=r"kl_s4\." + message):
        KLTable(4, cache_dir=tmp_path)


def test_a_column_holds_only_its_own_records(tmp_path):
    tbl = KLTable(4, cache_dir=tmp_path)
    tbl.warm()
    tbl.save()
    path = tbl.cache_path()
    # column 1342 holds lines 6 and 7; start column 1423 at line 7 instead
    # of line 8, so the trailer tiles the records but misplaces one
    data = _unsigned(path.read_bytes())
    assert b",1342:71,1423:95," in data
    path.write_bytes(sign(data.replace(b",1423:95,", b",1423:83,")))
    loaded = KLTable(4, cache_dir=tmp_path)
    assert loaded.polynomial((1, 2, 3, 4), (1, 3, 4, 2)) == ONE
    with pytest.raises(OSError, match=r"kl_s4\.tsv:7: bad record for column 1423"):
        loaded.polynomial((1, 2, 3, 4), (1, 4, 2, 3))
    # without an offset for column 1423, its records fall into column 1342
    path.write_bytes(sign(data.replace(b",1423:95,", b",")))
    loaded = KLTable(4, cache_dir=tmp_path)
    with pytest.raises(OSError, match=r"kl_s4\.tsv:8: bad record for column 1342"):
        loaded.polynomial((1, 2, 3, 4), (1, 3, 4, 2))


def test_parse_stored_checks_the_record_count(tmp_path):
    tbl = KLTable(4, cache_dir=tmp_path)
    tbl.warm()
    tbl.save()
    path = tbl.cache_path()
    # a repeated record, signed again: 59 lines for 58 entries
    path.write_text(path.read_text() + "4321\t4321\t1\n")
    resign(path)
    loaded = KLTable(4, cache_dir=tmp_path)
    assert loaded.load() == 59
    with pytest.raises(OSError, match=r"the trailer counts 59 records but the columns hold 58"):
        loaded.parse_stored()


# the child reads its peak from VmHWM, the high-water mark of its own
# address space: getrusage's ru_maxrss, in the child or from wait4, also
# counts the RSS of the parent it was started from
_S8_WARM = r"""
import hashlib
from rscells.kl import KLTable
table = KLTable(8)
table.warm()
digest = hashlib.sha256()
for w in range(len(table.perms)):
    digest.update(f"{table._mu_list(w)}\n".encode())
peak = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(table.entry_count(), int(peak.split()[1]) // 1024, digest.hexdigest())
"""

# the sha256 of the S_8 mu lists as _S8_WARM prints them, one line per rank,
# recorded from the recursion that ran at every raised entry
S8_MU_SHA256 = "fda5a780776dce4ec8d1b182cd6cc7814b9bb2986da6c6cac8bd45fe298b0475"


@pytest.mark.skipif(not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_s8_warm_peak_memory_long():
    # about 16 s at 178 MB after warm() and 189 MB with every mu list, and
    # 45 s at 183 and 194 MB while the recursion ran at every raised entry;
    # the columns and supports of S_8 took 1.06 GB before they were stored
    # compactly and one support length at a time, and 249 MB while the
    # supports were arrays of ranks
    src = os.path.dirname(os.path.dirname(rscells.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", _S8_WARM], env=env, capture_output=True, text=True, check=True,
        timeout=900,
    ).stdout
    entries, peak_mb, digest = out.split()
    assert int(entries) == 9_551_060
    assert digest == S8_MU_SHA256
    assert int(peak_mb) < 200, peak_mb
