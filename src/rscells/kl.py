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

Inside a table an element is its rank in the lexicographic list of S_n
(the identity is rank 0), and lengths, descent masks and the products by
each s_i are arrays over ranks built once per table.  Because ranks follow
lexicographic order, sorting ranks sorts the permutations.  Permutation
tuples appear only at the public methods, which reject anything that is not
a permutation of the table's degree.  The polynomials do not depend on the
side the recursion takes (Kazhdan-Lusztig 1979), so a table recurses on the
left only.  Right multiplication by s_i moves runs of ranks, the same in
every block of (n - i + 1)! ranks, by one offset per run (_right_runs), and
w s_i < w exactly where the offset is negative; the left steps and
descents are the right ones conjugated by inversion.

The Bruhat interval {y : y <= w} is an int bitset over ranks.  Bruhat
order does not depend on the side, so it is built as [e, v] u [e, v] s_i
for v = w s_i and a right descent s_i of w, the image of [e, v] being the
union of at most 2(n - i) masked shifts, one per offset.  The raised part
of an interval is one AND with the bitset of the ranks whose descents
contain those of w, and a column walks its set bits once, down the ranks.
An interval is read only by the intervals one length up, so warm(), the
cell graph and the bar-invariance walk drop each length layer once the
next is built.

A column is two aligned sequences: its raised ranks in ascending order,
as a list of the table's shared int objects that ends with the sentinel
n!, and an array of each rank's index into the table's pool, the list of
distinct polynomials (one byte each while the pool holds at most 256, two
bytes after that).  Entries are found by bisection; the sentinel keeps
every probe inside the list.  S_7 holds 292,070 entries in about 4 MB,
S_8 9,551,060 in about 105 MB.  The two polynomial steps of the recursion,
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
see either the old or the new complete file.  Loading reads the file once,
checks the version line, the checksum and that the offsets tile the body,
and keeps the bytes; a column's records are parsed and checked the first
time the column is asked for, so a query that reaches a few columns parses
only those.
"""

from __future__ import annotations

import functools
import os
import re
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from math import factorial
from pathlib import Path

from .permutations import Perm, all_permutations, format_permutation, inverse
from .polynomials import ONE, ZERO, IntPolynomial

# a table holds n! * n ranks up front, and digit notation stops at 9
MAX_DEGREE = 9

# a table with every column computed takes about 178 MB and 15-17 s at S_8,
# but the Bruhat intervals grow 26x, 36x and 48x per degree up to S_8, so S_9
# would take hours and more memory than a few GB; runs that warm every
# column stop here
WARM_MAX_DEGREE = 8

# the version in the first line of a cache file
FORMAT_VERSION = 2

# the coefficient field exactly as save() writes it; int() alone would also
# take "1_0", " +1" and non-ASCII digits
_COEFFS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")

# a column: its raised ranks ascending plus the sentinel n!, and their
# polynomials as indices into the table's pool
Column = tuple[list[int], array]


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


def _right_runs(n: int, i: int) -> tuple[int, int, list[tuple[int, int]]]:
    """How w s_i moves the ranks of S_n: (block, run, [(start, offset)]),
    each run of ``run`` ranks from ``start`` moving by ``offset``, in the
    first block of ``block`` ranks and in every later one alike.

    A rank's factorial-base digits are the Lehmer code c_1..c_n of its
    permutation, c_j of weight (n - j)!, and w s_i changes only c_i and
    c_{i+1}: to (c_{i+1} + 1, c_i) when d = c_{i+1} - c_i >= 0, w s_i > w,
    and to (c_{i+1}, c_i - 1) when d < 0.  So each pair (c_i, c_{i+1}) is a
    run of (n - i - 1)! ranks, and its offset depends on d alone."""
    f1, f2 = factorial(n - i), factorial(n - i - 1)
    runs = []
    for ci in range(n - i + 1):
        for cj in range(n - i):
            d = cj - ci
            runs.append((ci * f1 + cj * f2, d * (f1 - f2) + (f1 if d >= 0 else -f2)))
    return (n - i + 1) * f1, f2, runs


def _right_steps(n: int, i: int, ints: list[int]) -> list[int]:
    """The rank of w s_i for each rank of w in S_n, as objects of ``ints``;
    a run takes one slice assignment per block or, where that makes fewer,
    one per place of the run across every block."""
    size = len(ints) - 1
    block, run, runs = _right_runs(n, i)
    row = [0] * size
    for start, offset in runs:
        if run * block <= size:
            for k in range(start, start + run):
                row[k::block] = ints[k + offset : size : block]
        else:
            for b in range(start, size, block):
                row[b : b + run] = ints[b + offset : b + offset + run]
    return row


class KLTable:
    """Memoized Kazhdan-Lusztig polynomials and mu-coefficients for S_n,
    by the left descent recursion.

    Construction enumerates S_n once: ``perms[r]`` is the permutation of
    rank r in lexicographic order, and columns, supports and mu lists are
    keyed by rank.  A support is an int bitset over ranks.  A column holds its
    polynomials as indices into one pool of distinct values, and the
    polynomial steps of the recursion are memoized on those indices.  With a cache
    directory, construction loads the cache file, and a column it holds is
    parsed instead of computed when first needed.
    Degrees above MAX_DEGREE raise ValueError before any enumeration.
    """

    def __init__(self, n: int, *, cache_dir=None):
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"degree must lie in 1..{MAX_DEGREE}, got {n}")
        self.n = n
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.perms: list[Perm] = list(all_permutations(n))
        # the lexicographic rank of w, written in the factorial base, has the
        # Lehmer code of w as its digits, and their sum is the length
        lengths = [0]
        for k in range(2, n + 1):
            lengths = [d + l for d in range(k) for l in lengths]
        self._lengths = lengths
        size = len(lengths)
        # the int objects every rank table, key list and index holds; the
        # last, n!, ends each key list
        self._ints = ints = list(range(size + 1))
        self._index = index = dict(zip(self.perms, ints))
        # _inverse[r]: rank of perms[r]^-1
        self._inverse = inv = [index[inverse(w)] for w in self.perms]
        # _rsteps[i - 1][r] and _steps[i - 1][r]: ranks of perms[r] * s_i
        # and s_i * perms[r], where s_i w = (w^-1 s_i)^-1
        self._rsteps = right = [_right_steps(n, i, ints) for i in range(1, n)]
        self._steps = steps = [[inv[step[r]] for r in inv] for step in right]
        # right descent set, bit i - 1 for s_i, which holds where w s_i has
        # the lower rank, and the left one, the right one of the inverse
        rmasks = [0] * size
        for i, step in enumerate(right):
            bit = 1 << i
            rmasks = [m | bit if s < r else m for m, s, r in zip(rmasks, step, ints)]
        self._rmasks = rmasks
        self._masks = [rmasks[r] for r in inv]
        # the index of the lowest set bit of each descent mask
        self._lowest = [(m & -m).bit_length() - 1 for m in range(1 << n - 1)]
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
        # a scratch array over ranks that _column fills one column at a time
        self._scratch = [0] * size
        # memos of the two polynomial steps of _column on pool indices,
        # (a, b) -> a + q b and (p, P, k, m) -> p - m q^k P
        self._sums: dict[tuple[int, int], int] = {}
        self._corrections: dict[tuple[int, int, int, int], int] = {}
        self._mu_lists: dict[int, tuple[tuple[int, int], ...]] = {}
        # the loaded cache file: its bytes, rank -> (start, end) of each
        # column's records in them, and the trailer's record count; columns
        # are parsed on first use, each coefficient text once per table
        self._snapshot = b""
        self._stored: dict[int, tuple[int, int]] = {}
        self._stored_records = 0
        self._coeff_texts: dict[str, int] = {}
        self._name_ranks: tuple[list[str], dict[str, int]] | None = None
        if self.cache_dir is not None:
            self.load()

    def _rank(self, w) -> int:
        """The rank of ``w``; ValueError unless it is a permutation in S_n."""
        try:
            return self._index[tuple(w)]
        except (KeyError, TypeError):
            raise ValueError(f"not a permutation in S_{self.n}: {w!r}") from None

    def _by_length(self, ranks) -> list[int]:
        # a stable sort by length of the sorted ranks orders by (length, rank)
        return sorted(sorted(ranks), key=self._lengths.__getitem__)

    def _raise_to(self, y: int, wmask: int) -> int:
        """Push y up through the descents of w; P_{y,w} is unchanged."""
        while True:
            rest = wmask & ~self._masks[y]
            if not rest:
                return y
            y = self._steps[self._lowest[rest]][y]

    def _pool_index(self, p: IntPolynomial) -> int:
        """The index of p's value in the pool, adding p if it is new."""
        i = self._pool.get(p.coeffs)
        if i is None:
            i = self._pool[p.coeffs] = len(self._polys)
            self._polys.append(p)
            self._degrees.append(p.degree)
        return i

    def _pack(self, keys: list[int], values: Iterable[int]) -> Column:
        """Column form of the ascending ranks ``keys``, which should be the
        table's shared int objects, and their pool indices ``values``, in the
        narrowest unsigned array type that holds every index of the pool."""
        size = len(self._polys)
        values = array("B" if size <= 1 << 8 else "H" if size <= 1 << 16 else "I", values)
        keys.append(self._ints[-1])
        return keys, values

    def _compact(self, col: dict[int, int]) -> Column:
        """Column form of rank -> pool index; the keys of ``col`` become the
        column's keys, so they should be the table's shared int objects."""
        keys = sorted(col)
        return self._pack(keys, map(col.__getitem__, keys))

    def _entry(self, col: Column, y: int) -> IntPolynomial:
        """The polynomial ``col`` holds for rank y; ZERO when it holds none."""
        keys, values = col
        i = bisect_left(keys, y)
        return self._polys[values[i]] if keys[i] == y else ZERO

    # -- the recursion -----------------------------------------------------

    def _interval_tables(self) -> list[list[tuple[int, int]]]:
        """The right-multiplication tables of _support, built on first use so
        that queries the cache serves never pay for them: ``swaps[i - 1]``
        holds (M, offset) for each offset of w s_i, M the ranks it moves."""
        if self._swaps is None:
            size = len(self._lengths)
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
        i = self._rmasks[w].bit_length()
        sv = self._support(self._rsteps[i - 1][w])
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
            got = self._raised[wmask] = int(bytes(self._masks)[::-1].translate(keep), 2)
        return got

    def _in_length_order(self) -> Iterator[int]:
        """Every rank in (length, rank) order.

        _support(w) reads only supports of length l(w) - 1, so the supports
        of each length are dropped once all of the next length are yielded;
        the identity's, which ends that recursion, stays."""
        layers = [[] for _ in range(max(self._lengths) + 1)]
        for w, lw in enumerate(self._lengths):
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
        if w in self._stored:
            col = self._columns[w] = self._parse_column(w)
            return col
        masks, rmasks, lengths, lowest = self._masks, self._rmasks, self._lengths, self._lowest
        wmask, wrmask = masks[w], rmasks[w]
        ibit = wmask & -wmask
        step = self._steps[lowest[wmask]]
        v = step[w]
        keysv, valuesv = self._column(v)
        vmask = masks[v]
        lw = lengths[w]
        # mu(z, v) q^k P_{y,z} is subtracted for each z in the mu list of v
        # with s_i z < z; P_{y,z} is 0 unless y raises into column z
        muv = [
            (*self._column(z), masks[z], lengths[z], (lw - lengths[z]) // 2, m)
            for z, m in self._mu_list(v)
            if masks[z] & ibit
        ]
        raise_to, pool_index, polys = self._raise_to, self._pool_index, self._polys
        sums, corrections, ints = self._sums, self._corrections, self._ints
        rsteps, scratch = self._rsteps, self._scratch
        keys = list(map(ints.__getitem__, _ranks(self._support(w) & self._raised_set(wmask))))
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
        if self._lengths[y] >= self._lengths[w]:
            return ZERO
        return self._entry(self._column(w), self._raise_to(y, self._masks[w]))

    def _mu_list(self, w: int) -> tuple[tuple[int, int], ...]:
        got = self._mu_lists.get(w)
        if got is not None:
            return got
        lengths, degrees, polys = self._lengths, self._degrees, self._polys
        # 2 deg P_{y,w} <= l(w) - l(y) - 1 for y != w, which the recursion
        # keeps and parsing checks, so mu(y, w) is nonzero exactly when the
        # degree meets the bound, and it is then the top coefficient
        top = lengths[w] - 1
        # zip stops at the last value, before the sentinel
        pairs = [
            (y, polys[p].coeffs[-1])
            for y, p in zip(*self._column(w))
            if lengths[y] + 2 * degrees[p] == top
        ]
        for i, step in enumerate(self._steps):
            if self._masks[w] >> i & 1:
                pairs.append((step[w], 1))
        got = self._mu_lists[w] = tuple(sorted(pairs))
        return got

    def _mu(self, y: int, w: int) -> int:
        d = self._lengths[w] - self._lengths[y]
        if d <= 0 or d % 2 == 0:
            return 0
        return self._lookup(y, w).coeff((d - 1) // 2)

    # -- public queries ----------------------------------------------------

    def polynomial(self, y: Perm, w: Perm) -> IntPolynomial:
        """P_{y,w}(q); the zero polynomial when y <= w fails."""
        return self._lookup(self._rank(y), self._rank(w))

    def mu(self, y: Perm, w: Perm) -> int:
        """Coefficient of q^((l(w)-l(y)-1)/2) in P_{y,w}; 0 unless the
        exponent is a nonnegative integer and y < w."""
        return self._mu(self._rank(y), self._rank(w))

    def _mu_sym(self, y: int, w: int) -> int:
        return self._mu(y, w) if self._lengths[y] < self._lengths[w] else self._mu(w, y)

    def mu_sym(self, y: Perm, w: Perm) -> int:
        """mu on whichever side of the pair is shorter; symmetric."""
        return self._mu_sym(self._rank(y), self._rank(w))

    def support(self, w: Perm) -> frozenset[Perm]:
        """The Bruhat interval {y : y <= w}."""
        return frozenset(self.perms[y] for y in _ranks(self._support(self._rank(w))))

    def warm(self) -> None:
        """Compute every column, shortest elements first; only the
        identity's support is left afterwards."""
        for w in self._in_length_order():
            self._column(w)

    def entry_count(self) -> int:
        """Entries of the columns held so far, computed or parsed from the
        cache; columns of a loaded file count once they are first used."""
        return sum(len(values) for _, values in self._columns.values())

    # -- disk cache --------------------------------------------------------

    def cache_path(self) -> Path:
        if self.cache_dir is None:
            raise ValueError("no cache directory configured")
        return self.cache_dir / f"kl_s{self.n}.tsv"

    def _header(self) -> bytes:
        return f"#rscells-kl {FORMAT_VERSION} S_{self.n} left\n".encode()

    def _names(self) -> tuple[list[str], dict[str, int]]:
        """The digit name of each rank, and name -> rank; built on first use."""
        if self._name_ranks is None:
            names = list(map(format_permutation, self.perms))
            # the shared int objects, so parsed columns hold no other ints
            self._name_ranks = names, dict(zip(names, self._ints))
        return self._name_ranks

    def save(self) -> None:
        """Write every computed or loaded column; atomic replace of the cache
        file.  The records stream through one sha256 into the file column by
        column, so the body is never held twice."""
        import hashlib  # OpenSSL takes 4-9 ms to load; runs without a cache skip it

        path = self.cache_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self._names()[0]
        lengths, polys = self._lengths, self._polys
        texts: dict[int, str] = {}  # "c0,c1,..." per pool index
        digest = hashlib.sha256()
        offsets = []
        records = 0
        # a name no other writer uses; on failure nothing is left behind
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "xb") as fh:

                def put(chunk: bytes) -> None:
                    digest.update(chunk)
                    fh.write(chunk)

                put(self._header())
                for w in self._by_length(self._columns.keys() | self._stored.keys()):
                    keys, values = self._column(w)
                    records += len(values)
                    wname = names[w]
                    offsets.append(f"{wname}:{fh.tell()}")
                    lines = []
                    # the keys ascend, so a stable sort by length gives (length, rank)
                    for y, p in sorted(zip(keys, values), key=lambda e: lengths[e[0]]):
                        text = texts.get(p)
                        if text is None:
                            text = texts[p] = ",".join(map(str, polys[p].coeffs))
                        lines.append(f"{names[y]}\t{wname}\t{text}\n")
                    put("".join(lines).encode())
                put(f"#end {records} {','.join(offsets)} ".encode())
                fh.write(f"{digest.hexdigest()}\n".encode())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def load(self) -> int:
        """Read the cache file, if present; returns the records it holds.

        Checks the version line, the sha256 of every byte before it and that
        the trailer's column offsets tile the records, then keeps the bytes.
        Columns the table already holds win; the others are parsed when
        first asked for.  Raises OSError naming the file, and the line where
        there is one, of the first problem.
        """
        import hashlib

        path = self.cache_path()
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return 0
        header = self._header()
        if not data.startswith(header):
            raise OSError(
                f"{path}:1: not a format-{FORMAT_VERSION} KL cache file of S_{self.n}: "
                f"the first line is not {header.decode().strip()!r}"
            )
        # the trailer is the last line, and the sha256 its last field
        end = data.rfind(b"\n", 0, len(data) - 1) + 1
        cut = data.rfind(b" ", end) + 1
        if end < len(header) or cut <= end or not data.endswith(b"\n"):
            lineno = data.count(b"\n", 0, end) + 1
            raise OSError(f"{path}:{lineno}: no trailer with a sha256 on the last line")
        if hashlib.sha256(memoryview(data)[:cut]).hexdigest().encode() != data[cut:-1]:
            raise OSError(f"{path}: checksum mismatch: the file is not the one written")
        try:
            tag, count, columns = data[end : cut - 1].decode("ascii").split(" ")
            if tag != "#end" or not count.isdigit():
                raise ValueError
            ranks = self._names()[1]
            starts = []
            for item in columns.split(","):
                name, offset = item.split(":")
                if not offset.isdigit():
                    raise ValueError
                starts.append((int(offset), ranks[name]))
        except (KeyError, ValueError):
            lineno = data.count(b"\n", 0, end) + 1
            raise OSError(f"{path}:{lineno}: bad trailer for S_{self.n}") from None
        # each column once, starting at a line start, in file order, from the
        # end of the version line up to the trailer
        bounds = [offset for offset, _ in starts] + [end]
        stored = {w: (offset, bounds[k + 1]) for k, (offset, w) in enumerate(starts)}
        if (
            bounds[0] != len(header)
            or len(stored) != len(starts)
            or any(a >= b or data[a - 1] != 10 for a, b in zip(bounds, bounds[1:]))
        ):
            raise OSError(f"{path}: the column offsets of the trailer do not tile the records")
        self._snapshot, self._stored, self._stored_records = data, stored, int(count)
        return self._stored_records

    def _parse_column(self, w: int) -> Column:
        """The records of column w in the loaded file, in column form.

        Raises OSError naming the file and line of the first record that is
        malformed (coefficients other than comma-separated ASCII integers
        included), not of this table's degree, not of column w, or not a KL
        polynomial: P(0) != 1, P_{w,w} != 1, or deg P_{y,w} > (l(w) - l(y) - 1)/2."""
        start, stop = self._stored[w]
        names, ranks = self._names()
        wname = names[w]
        lengths, degrees, texts = self._lengths, self._degrees, self._coeff_texts
        lw = lengths[w]
        col = {}
        # undecodable bytes become U+FFFD, which fails below as a bad record
        lines = self._snapshot[start : stop - 1].decode(errors="replace").split("\n")
        for line in lines:
            try:
                ytext, wtext, ctext = line.split("\t")
                if wtext != wname:
                    raise ValueError(wtext)
                y = ranks[ytext]
                p = texts.get(ctext)
                if p is None:
                    if not _COEFFS.fullmatch(ctext):
                        raise ValueError(ctext)
                    poly = IntPolynomial(map(int, ctext.split(",")))
                    if poly.coeff(0) != 1:
                        raise ValueError(ctext)
                    p = texts[ctext] = self._pool_index(poly)
                # 2 deg P_{y,w} < l(w) - l(y) unless y = w, and P_{w,w} = 1 (pool index 1)
                if lengths[y] + 2 * degrees[p] >= lw and (y != w or p != 1):
                    raise ValueError(ctext)
            except (KeyError, ValueError):
                if not line.strip():
                    continue
                # an equal line earlier in the column would have failed first
                lineno = self._snapshot.count(b"\n", 0, start) + lines.index(line) + 1
                raise OSError(
                    f"{self.cache_path()}:{lineno}: bad record for column {wname} "
                    f"of S_{self.n}: {line!r}"
                ) from None
            col[y] = p
        return self._compact(col)

    def parse_stored(self) -> int:
        """Parse every column of the loaded file; returns the records read.

        Raises OSError on the first bad record, and when the records differ
        in number from the trailer's count (a repeated record included)."""
        records = 0
        for w in self._stored:
            col = self._parse_column(w)
            self._columns.setdefault(w, col)
            records += len(col[1])
        if records != self._stored_records:
            raise OSError(
                f"{self.cache_path()}: the trailer counts {self._stored_records} records "
                f"but the columns hold {records}"
            )
        return records


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
