"""
Kazhdan-Lusztig polynomials for S_n by the descent recursion.

A :class:`KLTable` computes the whole column P_{., w} at once, recursing on
v = s_i w for the smallest left descent s_i of w:

    P_{y,w} = P_{s_i y, v} + q P_{y, v}
              - sum over z <= v with s_i z < z and mu(z, v) != 0 of
                mu(z, v) q^((l(w) - l(z)) / 2) P_{y, z}

Only "raised" y are stored, those whose descent set contains the descent set
of w; any other y is first pushed up through the descents of w, which leaves
the polynomial unchanged, so c = 1 in the recursion above.  The mu list of w
consists of the stored entries whose degree meets the bound
2 deg P_{y,w} <= l(w) - l(y) - 1, with mu the top coefficient, plus
the lower covers s_i w for descents s_i of w (the only non-raised pairs
whose mu can survive the degree bound).

The recursion itself runs only at the two-sided extremal y, whose right
descent set contains that of w as well: P_{y,w} = P_{yt,w} for every right
descent t of w too (F. du Cloux, "Computing Kazhdan-Lusztig polynomials for
arbitrary Coxeter groups", Experiment. Math. 11, 2002).  Any other raised y
lacks some right descent t of w, and y t lies below w, is raised again
(yt > y keeps every left descent of y) and has a higher rank, so a walk
down the ranks copies P_{yt,w} into P_{y,w}.  Chained, the copies raise y on
the right until it is extremal.  S_7 has 50,224 extremal entries among its
292,070, and S_8 1,147,956 among its 9,551,060.

Inside a table an element is its rank in S_n, and lengths, descent masks
and the products by each s_i are the arrays of the degree's shared
:class:`~rscells.permutations.Ranks`.  Permutation tuples appear only at the
public methods, which reject anything that is not a permutation of the
table's degree.  The polynomials do not depend on the side the recursion
takes (Kazhdan-Lusztig 1979), so a table recurses on the left only.

The Bruhat interval {y : y <= w} is an int bitset over ranks.  Bruhat
order does not depend on the side, so it is built as [e, v] u [e, v] s_i
for v = w s_i and a right descent s_i of w, the image of [e, v] being the
union of at most 2(n - i) masked shifts, one per offset.  The raised part
of an interval is one AND with the bitset of the ranks whose descents
contain those of w, and a column walks its set bits once, down the ranks.
An interval is read only by the intervals one length up, so warm(),
save(), the cell graph and the bar-invariance walk drop each length layer
once the next is built.

A column is two aligned arrays: its raised ranks in ascending order,
ending with the sentinel n! (two bytes each up to S_8, four at S_9), and
each rank's index into the table's pool, the list of distinct polynomials
(one byte each while the pool holds at most 256, two bytes after that).
Entries are found by bisection; the sentinel keeps every probe inside the
array.  A mu list is two arrays too, its ranks z ascending and their mu
values.  S_7 holds 292,070 entries in about 2 MB, S_8 9,551,060 in about
44 MB.  The two polynomial steps of the recursion,
P_{s_i y,v} + q P_{y,v} and p - mu q^k P_{y,z}, see few distinct operands:
both are memoized per table on pool indices: S_7 looks them up 61,264
times and computes 968 of them, S_8 looks them up 1.56 M times and
computes 29,060.

Columns persist to a cache file in format 2: a version line
``#rscells-kl 2 S_<n> left``, then one record per line,
``y<TAB>w<TAB>c0,c1,...,cd`` with permutations in digit notation, in
(length, rank) order of w and then of y, and last a trailer line
``#end <records> <w>:<offset>,... <sha256>`` giving the record count, the
byte offset at which each column's records start, and the sha256 of every
byte of the file before it.  Files are written column by column to a uniquely
named temporary file and renamed over the old one, so concurrent readers
see either the old or the new complete file.  No polynomial is ever read
back: every column is computed, which at S_8 is cheaper than parsing the
file, and load() checks a file byte for byte against the one save() would
write, so an edited record is refused even when the file was signed again.
"""

from __future__ import annotations

import contextlib
import functools
import os
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from math import factorial
from pathlib import Path

from .permutations import Perm, _right_runs, format_permutation, rank_arrays
from .polynomials import ONE, ZERO, IntPolynomial

# a table with every column computed takes about 103 MB and 12-15 s at S_8,
# but the Bruhat intervals grow 26x, 36x and 48x per degree up to S_8, so S_9
# would take hours and more memory than a few GB; runs that warm every
# column stop here
WARM_MAX_DEGREE = 8

# the version in the first line of a cache file
FORMAT_VERSION = 2

# a column: its raised ranks ascending plus the sentinel n!, and their
# polynomials as indices into the table's pool
Column = tuple[array, array]
# a mu list: the ranks z ascending and mu(z, w) of each
MuList = tuple[array, "array | list[int]"]


# the set bits of each byte value, and the translation that marks the
# nonzero bytes
_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]
_NONZERO = bytes([0] + [1] * 255)


def _ranks(bits: int) -> Iterator[int]:
    """The set bits of ``bits``, ascending.  bytes.find skips the zero
    bytes of its little-endian bytes in C; on the sparse raised sets of S_8
    this walks in about half the time of str.find over the binary text,
    which is eight times longer and slower to build."""
    data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    marks = data.translate(_NONZERO)
    k = marks.find(1)
    while k >= 0:
        base = 8 * k
        for i in _BYTE_BITS[data[k]]:
            yield base + i
        k = marks.find(1, k + 1)


class KLTable:
    """Memoized Kazhdan-Lusztig polynomials and mu-coefficients for S_n,
    by the left descent recursion.

    Columns, supports and mu lists are keyed by rank, and ``ranks`` is the
    degree's shared :class:`~rscells.permutations.Ranks`.  A support is an
    int bitset over ranks.  A column holds its polynomials as indices into
    one pool of distinct values, and the polynomial steps of the recursion
    are memoized on those indices.  A cache directory only names where
    save() writes and what load() checks; every column is computed.
    Degrees outside 1..MAX_DEGREE raise ValueError before any enumeration.
    """

    def __init__(self, n: int, *, cache_dir=None):
        self.ranks = rank_arrays(n)
        self.n = n
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        size = factorial(n)
        # the array type of column keys and mu list ranks, which run up to
        # the sentinel n!
        self._keycode = "H" if size < 1 << 16 else "I"
        # a scratch array over ranks that _column fills one column at a time
        self._scratch = [0] * size
        # the pool: each distinct polynomial once, ZERO and ONE at 0 and 1,
        # their degrees, and coefficients -> index
        self._polys: list[IntPolynomial] = [ZERO, ONE]
        self._degrees = [ZERO.degree, ONE.degree]
        self._pool: dict[tuple[int, ...], int] = {ZERO.coeffs: 0, ONE.coeffs: 1}
        self._columns: dict[int, Column] = {0: self._compact({0: 1})}
        # Bruhat intervals as bitsets over ranks, the identity's {e} first;
        # the tables they are built from, and descent mask -> the bitset of
        # the ranks raised to it, are made on first use
        self._supports: dict[int, int] = {0: 1}
        self._swaps: list[list[tuple[int, int]]] | None = None
        self._raised: dict[int, int] = {}
        # memos of the two polynomial steps of _column on pool indices,
        # (a, b) -> a + q b and (p, P, k, m) -> p - m q^k P
        self._sums: dict[tuple[int, int], int] = {}
        self._corrections: dict[tuple[int, int, int, int], int] = {}
        self._mu_lists: dict[int, MuList] = {}

    def _pool_index(self, p: IntPolynomial) -> int:
        """The index of p's value in the pool, adding p if it is new."""
        i = self._pool.get(p.coeffs)
        if i is None:
            i = self._pool[p.coeffs] = len(self._polys)
            self._polys.append(p)
            self._degrees.append(p.degree)
        return i

    def _pack(self, keys: list[int], values: Iterable[int]) -> Column:
        """Column form of the ascending ranks ``keys`` and their pool indices
        ``values``, the indices in the narrowest unsigned array type that
        holds every index of the pool."""
        size = len(self._polys)
        values = array("B" if size <= 1 << 8 else "H" if size <= 1 << 16 else "I", values)
        keys.append(len(self._scratch))
        return array(self._keycode, keys), values

    def _compact(self, col: dict[int, int]) -> Column:
        """Column form of rank -> pool index."""
        keys = sorted(col)
        return self._pack(keys, map(col.__getitem__, keys))

    def _entry(self, col: Column, y: int) -> IntPolynomial:
        """The polynomial ``col`` holds for rank y; ZERO when it holds none."""
        keys, values = col
        i = bisect_left(keys, y)
        return self._polys[values[i]] if keys[i] == y else ZERO

    # -- the recursion -----------------------------------------------------

    def _interval_tables(self) -> list[list[tuple[int, int]]]:
        """The right-multiplication tables of _support, built on first use:
        ``swaps[i - 1]`` holds (M, offset) for each offset of w s_i, M the
        ranks it moves."""
        if self._swaps is None:
            size = len(self._scratch)
            swaps = []
            for i in range(1, self.n):
                block, run, runs = _right_runs(self.n, i)
                # the bitset of the first rank of every block
                blocks = ((1 << size) - 1) // ((1 << block) - 1)
                moved: dict[int, int] = {}
                for start, offset in runs:
                    moved[offset] = moved.get(offset, 0) | ((1 << run) - 1) << start
                swaps.append([(mask * blocks, offset) for offset, mask in moved.items()])
            self._swaps = swaps
        return self._swaps

    def _support(self, w: int) -> int:
        """The Bruhat interval {y : y <= w} as a bitset over ranks, built as
        [e, v] u [e, v] s_i for v = w s_i and the last right descent s_i
        of w, the one with fewest offsets."""
        s = self._supports.get(w)
        if s is not None:
            return s
        i = self.ranks.rmasks[w].bit_length()
        sv = self._support(self.ranks.rsteps[i - 1][w])
        s = sv
        for mask, delta in self._interval_tables()[i - 1]:
            s |= (sv & mask) << delta if delta > 0 else (sv & mask) >> -delta
        self._supports[w] = s
        return s

    def _raised_set(self, wmask: int) -> int:
        """The bitset of the ranks whose left descent set contains ``wmask``,
        memoized per mask: the descent masks as bytes, highest rank first,
        translate to its binary text."""
        got = self._raised.get(wmask)
        if got is None:
            keep = bytes(48 if wmask & ~m else 49 for m in range(256))
            got = self._raised[wmask] = int(bytes(self.ranks.masks)[::-1].translate(keep), 2)
        return got

    def _in_length_order(self) -> Iterator[int]:
        """Every rank in (length, rank) order.

        _support(w) reads only supports of length l(w) - 1, so the supports
        of each length are dropped once all of the next length are yielded;
        the identity's, which ends that recursion, stays."""
        lengths = self.ranks.lengths
        layers = [[] for _ in range(max(lengths) + 1)]
        for w, lw in enumerate(lengths):
            layers[lw].append(w)
        yield 0
        below: list[int] = []
        for layer in layers[1:] + [[]]:
            yield from layer
            for v in below:
                self._supports.pop(v, None)
            below = layer

    def _column(self, w: int) -> Column:
        """P_{y,w} for every raised y <= w (descents of w all descend y).

        The recursion runs only at the two-sided extremal y, whose right
        descents contain those of w as well."""
        col = self._columns.get(w)
        if col is not None:
            return col
        ranks = self.ranks
        masks, rmasks, lengths, lowest = ranks.masks, ranks.rmasks, ranks.lengths, ranks.lowest
        wmask, wrmask = masks[w], rmasks[w]
        ibit = wmask & -wmask
        step = ranks.steps[lowest[wmask]]
        v = step[w]
        # the keys of the columns probed below are read as lists for this
        # call: bisection in an array builds an int at every comparison
        keysv, valuesv = self._column(v)
        keysv = keysv.tolist()
        vmask = masks[v]
        lw = lengths[w]
        # mu(z, v) q^k P_{y,z} is subtracted for each z in the mu list of v
        # with s_i z < z; P_{y,z} is 0 unless y raises into column z
        muv = []
        for z, m in zip(*self._mu_list(v)):
            if masks[z] & ibit:
                keysz, valuesz = self._column(z)
                muv.append(
                    (keysz.tolist(), valuesz, masks[z], lengths[z], (lw - lengths[z]) // 2, m)
                )
        raise_to, pool_index, polys = ranks.raise_to, self._pool_index, self._polys
        sums, corrections = self._sums, self._corrections
        rsteps, scratch = ranks.rsteps, self._scratch
        keys = list(_ranks(self._support(w) & self._raised_set(wmask)))
        # walk down the ranks: a raised y that lacks a right descent of w
        # copies P_{yt,w} for the lowest such t, as y t lies in the interval,
        # is raised (yt > y keeps every left descent of y) and has a higher
        # rank, so it is filled already; every other y recurses
        for y in reversed(keys):
            rest = wrmask & ~rmasks[y]
            if rest:
                scratch[y] = scratch[rsteps[lowest[rest]][y]]
                continue
            x = raise_to(step[y], vmask)
            i = bisect_left(keysv, x)
            a = valuesv[i] if keysv[i] == x else 0
            x = raise_to(y, vmask)
            i = bisect_left(keysv, x)
            b = valuesv[i] if keysv[i] == x else 0
            p = sums.get((a, b))
            if p is None:
                p = sums[a, b] = pool_index(polys[a] + polys[b].shift(1))
            ly = lengths[y]
            for keysz, valuesz, zmask, lz, k, m in muv:
                if ly > lz:
                    continue
                x = raise_to(y, zmask)
                i = bisect_left(keysz, x)
                if keysz[i] == x:
                    key = (p, valuesz[i], k, m)
                    r = corrections.get(key)
                    if r is None:
                        r = corrections[key] = pool_index(
                            polys[p] - polys[valuesz[i]].shift(k) * m
                        )
                    p = r
            scratch[y] = p
        col = self._columns[w] = self._pack(keys, map(scratch.__getitem__, keys))
        return col

    def _lookup(self, y: int, w: int) -> IntPolynomial:
        if y == w:
            return ONE
        ranks = self.ranks
        lengths = ranks.lengths
        if lengths[y] >= lengths[w]:
            return ZERO
        # _column and _entry inlined: the certificate of bar-invariance runs
        # this a few times per interval element
        keys, values = self._columns.get(w) or self._column(w)
        y = ranks.raise_to(y, ranks.masks[w])
        i = bisect_left(keys, y)
        return self._polys[values[i]] if keys[i] == y else ZERO

    def _mu_list(self, w: int) -> MuList:
        """The z with mu(z, w) != 0, ascending, and mu(z, w) of each."""
        got = self._mu_lists.get(w)
        if got is not None:
            return got
        ranks = self.ranks
        lengths, degrees, polys = ranks.lengths, self._degrees, self._polys
        # 2 deg P_{y,w} <= l(w) - l(y) - 1 for y != w, so mu(y, w) is nonzero
        # exactly when the degree meets the bound, and it is then the top
        # coefficient
        top = lengths[w] - 1
        # zip stops at the last value, before the sentinel
        mus = {
            y: polys[p].coeffs[-1]
            for y, p in zip(*self._column(w))
            if lengths[y] + 2 * degrees[p] == top
        }
        wmask = ranks.masks[w]
        for i, step in enumerate(ranks.steps):
            if wmask >> i & 1:
                mus[step[w]] = 1
        zs = sorted(mus)
        values = list(map(mus.__getitem__, zs))
        # every mu of S_8 is 1; a list with one that fits no byte keeps ints
        with contextlib.suppress(OverflowError):
            values = array("B", values)
        got = self._mu_lists[w] = array(self._keycode, zs), values
        return got

    def _mu(self, y: int, w: int) -> int:
        lengths = self.ranks.lengths
        d = lengths[w] - lengths[y]
        if d <= 0 or d % 2 == 0:
            return 0
        return self._lookup(y, w).coeff((d - 1) // 2)

    # -- public queries ----------------------------------------------------

    def polynomial(self, y: Perm, w: Perm) -> IntPolynomial:
        """P_{y,w}(q); the zero polynomial when y <= w fails."""
        return self._lookup(self.ranks.rank(y), self.ranks.rank(w))

    def mu(self, y: Perm, w: Perm) -> int:
        """Coefficient of q^((l(w)-l(y)-1)/2) in P_{y,w}; 0 unless the
        exponent is a nonnegative integer and y < w."""
        return self._mu(self.ranks.rank(y), self.ranks.rank(w))

    def _mu_sym(self, y: int, w: int) -> int:
        lengths = self.ranks.lengths
        return self._mu(y, w) if lengths[y] < lengths[w] else self._mu(w, y)

    def mu_sym(self, y: Perm, w: Perm) -> int:
        """mu on whichever side of the pair is shorter; symmetric."""
        return self._mu_sym(self.ranks.rank(y), self.ranks.rank(w))

    def support(self, w: Perm) -> frozenset[Perm]:
        """The Bruhat interval {y : y <= w}."""
        perms = self.ranks.perms
        return frozenset(perms[y] for y in _ranks(self._support(self.ranks.rank(w))))

    def warm(self) -> None:
        """Compute every column, shortest elements first; only the
        identity's support is left afterwards."""
        for w in self._in_length_order():
            self._column(w)

    def entry_count(self) -> int:
        """Entries of the columns computed so far."""
        return sum(len(values) for _, values in self._columns.values())

    # -- disk cache --------------------------------------------------------

    def cache_path(self) -> Path:
        if self.cache_dir is None:
            raise ValueError("no cache directory configured")
        return self.cache_dir / f"kl_s{self.n}.tsv"

    def _file(self) -> Iterator[bytes]:
        """The cache file of S_n in pieces: the version line, the records of
        each column, computed first where they are not, and the trailer.
        The pieces stream through one sha256, so the body is never held
        whole."""
        import hashlib  # OpenSSL takes 4-9 ms to load; runs without a cache skip it

        names = list(map(format_permutation, self.ranks.perms))
        lengths, polys = self.ranks.lengths, self._polys
        texts: dict[int, str] = {}  # "c0,c1,..." per pool index
        digest = hashlib.sha256()
        offsets = []
        records = 0
        header = f"#rscells-kl {FORMAT_VERSION} S_{self.n} left\n".encode()
        digest.update(header)
        yield header
        size = len(header)
        for w in self._in_length_order():
            keys, values = self._column(w)
            records += len(values)
            wname = names[w]
            lines = []
            # the keys ascend, so a stable sort by length gives (length, rank)
            for y, p in sorted(zip(keys, values), key=lambda e: lengths[e[0]]):
                text = texts.get(p)
                if text is None:
                    text = texts[p] = ",".join(map(str, polys[p].coeffs))
                lines.append(f"{names[y]}\t{wname}\t{text}\n")
            chunk = "".join(lines).encode()
            digest.update(chunk)
            offsets.append(f"{wname}:{size}")
            size += len(chunk)
            yield chunk
        trailer = f"#end {records} {','.join(offsets)} ".encode()
        digest.update(trailer)
        yield trailer + f"{digest.hexdigest()}\n".encode()

    def save(self) -> None:
        """Write every column of S_n, computing those not yet computed, to a
        uniquely named temporary file and rename it over the cache file, so
        that a concurrent reader sees the old or the new complete file."""
        path = self.cache_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        # a name no other writer uses; on failure nothing is left behind
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "xb") as fh:
                fh.writelines(self._file())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def load(self) -> int:
        """Check the cache file byte for byte against what save() would
        write, which computes every column; returns the records it holds.

        No polynomial is read from the file.  Raises OSError naming the
        file and its first line that differs."""
        path = self.cache_path()

        def differs(lineno: int, found: bytes) -> OSError:
            text = found[:80].decode(errors="replace")
            return OSError(f"{path}:{lineno}: differs from the recomputed S_{self.n}: {text!r}")

        lineno = 1
        with open(path, "rb") as fh:
            for chunk in self._file():
                got = fh.read(len(chunk))
                if got != chunk:
                    found, want = got.split(b"\n"), chunk.split(b"\n")
                    k = next(
                        (k for k, (a, b) in enumerate(zip(found, want)) if a != b),
                        min(len(found), len(want)) - 1,
                    )
                    raise differs(lineno + k, found[k])
                lineno += chunk.count(b"\n")
            rest = fh.read(80)
        if rest:
            raise differs(lineno, rest.split(b"\n")[0])
        return self.entry_count()


@functools.lru_cache(maxsize=1)
def default_table(n: int) -> KLTable:
    """A process-wide table of degree n, shared until a call asks for
    another degree: only the last degree's table is kept."""
    return KLTable(n)


def kl_polynomial(y: Perm, w: Perm) -> IntPolynomial:
    """P_{y,w}(q) via the shared table for the degree of y."""
    return default_table(len(y)).polynomial(y, w)


def mu(y: Perm, w: Perm) -> int:
    return default_table(len(y)).mu(y, w)


def mu_sym(y: Perm, w: Perm) -> int:
    return default_table(len(y)).mu_sym(y, w)
