"""
Kazhdan-Lusztig polynomials for S_n by the descent recursion.

A :class:`KLTable` computes the whole column P_{., w} at once, recursing on
v = s_i w for the smallest left descent s_i of w:

    P_{y,w} = P_{s_i y, v} + q P_{y, v}
              - sum over z <= v with s_i z < z and mu(z, v) != 0 of
                mu(z, v) q^((l(w) - l(z)) / 2) P_{y, z}

A column stores only the two-sided extremal y, whose left and right
descent sets contain those of w: any other y <= w is first pushed up
through the descents of w on both sides, which leaves the polynomial
unchanged (F. du Cloux, "Computing Kazhdan-Lusztig polynomials for
arbitrary Coxeter groups", Experiment. Math. 11, 2002), so c = 1 in the
recursion above.  S_7 has 50,224 such entries and S_8 1,147,956.  The mu
list of w consists of the stored entries whose degree meets the bound
2 deg P_{y,w} <= l(w) - l(y) - 1, with mu the top coefficient, plus the
lower covers s_i w and w s_i for the left and right descents s_i of w (the
only other pairs whose mu can survive the degree bound).

P_{y,w} = P_{y^-1,w^-1} (Kazhdan-Lusztig, Invent. Math. 53, 1979), and
inversion swaps the two descent sets, so where the column of w^-1 is
computed already, that of w is its image under inversion, sorted.  warm()
goes in (length, rank) order, so it recurses only for the w that do not
come after their inverse; a column is never computed just to be inverted.

Inside a table an element is its rank in S_n, and lengths, descent masks
and the products by each s_i are the arrays of the degree's shared
:class:`~rscells.permutations.Ranks`.  Permutation tuples appear only at the
public methods, which reject anything that is not a permutation of the
table's degree.  The polynomials do not depend on the side the recursion
takes (Kazhdan-Lusztig 1979), so a table recurses on the left only.

The Bruhat interval {y : y <= w} is an int bitset over ranks.  Bruhat
order does not depend on the side, so it is built as [e, v] u [e, v] s_i
for v = w s_i and a right descent s_i of w, the image of [e, v] being the
union of at most 2(n - i) masked shifts, one per offset.  The extremal part
of an interval is two ANDs, with the bitsets of the ranks whose left and
right descent sets contain those of w, and a column walks its set bits
once.  An interval is read only by the intervals one length up, so warm(),
save(), the cell graph and the bar-invariance walk drop each length layer
once the next is built.

Every column of a table lies in one flat store, appended when it is
computed: its extremal ranks in ascending order, then the sentinel n! (two
bytes each up to S_8, four at S_9), and aligned with them each rank's index
into the table's pool, the list of distinct polynomials (one byte each
while the pool holds at most 256, widened once to two bytes when it grows
past that, as at S_7).  Per rank, two int arrays hold the offsets of its
column's first entry and of its sentinel.  Entries are found by bisection
between the two; the sentinel keeps every probe inside the column.  The mu
lists share a second flat store the same way, the ranks z ascending and
their mu values.  With every mu list built, the columns of S_7 take 0.26 MB
and the mu lists 0.17 MB; at S_8 they take 5.2 and 1.7 MB (as one pair of
arrays each, they took 14.4 and 11.5 MB, mostly object headers).  The two
polynomial steps of the recursion, P_{s_i y,v} + q P_{y,v} and
p - mu q^k P_{y,z}, see few distinct operands: both are memoized per table
on pool indices: S_7 looks them up 31,894 times and computes 724 of
them, S_8 looks them up 795 K times and computes 18,736.

Columns persist to a cache file in format 3: a version line
``#rscells-kl 3 S_<n> left``, then one record per line,
``y<TAB>w<TAB>c0,c1,...,cd`` with permutations in digit notation, in
(length, rank) order of w and then of y.  A file holds the one-sided
records, every y <= w whose left descent set contains that of w (292,070
at S_7, 9,551,060 at S_8), expanded from the stored columns as they are
written; entry_count() counts them too.  Files are written column by
column to a uniquely named temporary file and renamed over the old one, so
concurrent readers see either the old or the new complete file.  No
polynomial is ever read back: every column is computed, which at S_8 is
cheaper than parsing the file, and load() checks a file byte for byte
against the one save() would write, so an edited, truncated or extended
file is refused.
"""

from __future__ import annotations

import functools
import os
from array import array
from bisect import bisect_left
from collections.abc import Iterator
from math import factorial
from pathlib import Path

from .permutations import Perm, _right_runs, format_permutation, rank_arrays
from .polynomials import ONE, ZERO, IntPolynomial

# a table with every column computed takes about 63 MB and 3-4 s at S_8,
# but the Bruhat intervals grow 26x, 36x and 48x per degree up to S_8, so S_9
# would take hours and more memory than a few GB; runs that warm every
# column stop here
WARM_MAX_DEGREE = 8

# the version in the first line of a cache file
FORMAT_VERSION = 3

# a mu list: the table's flat arrays of z and of mu(z, w), and the bounds
# of w's list in them, the z ascending
MuList = tuple[array, array, int, int]


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
        self._size = size = factorial(n)
        self._lengths = self.ranks.lengths
        # the array type of column keys and mu list ranks, which run up to
        # the sentinel n!
        self._keycode = "H" if size < 1 << 16 else "I"
        # the pool: each distinct polynomial once, ZERO and ONE at 0 and 1,
        # their degrees, and coefficients -> index
        self._polys: list[IntPolynomial] = [ZERO, ONE]
        self._degrees = [ZERO.degree, ONE.degree]
        self._pool: dict[tuple[int, ...], int] = {ZERO.coeffs: 0, ONE.coeffs: 1}
        # every column in one flat store, in the order they are computed: its
        # two-sided extremal ranks ascending and then the sentinel n!, and
        # aligned with them their pool indices (0 at the sentinel); per rank
        # the index of its column's first entry (-1 until it is computed)
        # and of its sentinel
        self._keys = array(self._keycode, [0, size])
        self._values = array("B", [1, 0])
        self._starts = array("i", [-1]) * size
        self._ends = array("i", [0]) * size
        self._starts[0], self._ends[0] = 0, 1
        # the one-sided records of the columns computed so far, the entries
        # a cache file holds
        self._entries = 1
        # Bruhat intervals as bitsets over ranks, the identity's {e} first;
        # the tables they are built from, and (descent mask, side) -> the
        # bitset of the ranks raised to it on that side, are made on first use
        self._supports: dict[int, int] = {0: 1}
        self._swaps: list[list[tuple[int, int]]] | None = None
        self._raised: dict[tuple[int, bool], int] = {}
        # memos of the two polynomial steps of _column on pool indices,
        # (a, b) -> a + q b and (p, P, k, m) -> p - m q^k P
        self._sums: dict[tuple[int, int], int] = {}
        self._corrections: dict[tuple[int, int, int, int], int] = {}
        # every mu list in one flat store the same way: the z, their mu
        # values, and per rank the bounds of its list (start -1 until built)
        self._mu_zs = array(self._keycode)
        self._mu_ms = array("B")
        self._mu_starts = array("i", [-1]) * size
        self._mu_ends = array("i", [0]) * size

    def _pool_index(self, p: IntPolynomial) -> int:
        """The index of p's value in the pool, adding p if it is new."""
        i = self._pool.get(p.coeffs)
        if i is None:
            i = self._pool[p.coeffs] = len(self._polys)
            self._polys.append(p)
            self._degrees.append(p.degree)
        return i

    def _store(self, w: int, keys: list[int], values: list[int]) -> tuple[int, int]:
        """Append column w, the ascending ranks ``keys`` and their pool
        indices ``values``, to the flat store and point w's bounds at it.
        The pool indices are widened first, once each, to the narrowest
        unsigned array type that holds every index of the pool."""
        size = len(self._polys)
        code = "B" if size <= 1 << 8 else "H" if size <= 1 << 16 else "I"
        if code != self._values.typecode:
            self._values = array(code, self._values)
        lo = len(self._keys)
        self._keys.fromlist(keys)
        self._keys.append(self._size)
        self._values.fromlist(values)
        self._values.append(0)
        hi = lo + len(keys)
        self._starts[w], self._ends[w] = lo, hi
        return lo, hi

    # -- the recursion -----------------------------------------------------

    def _interval_tables(self) -> list[list[tuple[int, int]]]:
        """The right-multiplication tables of _support, built on first use:
        ``swaps[i - 1]`` holds (M, offset) for each offset of w s_i, M the
        ranks it moves."""
        if self._swaps is None:
            size = self._size
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

    def _raised_set(self, wmask: int, right: bool = False) -> int:
        """The bitset of the ranks whose left descent set, or right one,
        contains ``wmask``, memoized per side and mask: the descent masks as
        bytes, highest rank first, translate to its binary text."""
        got = self._raised.get((wmask, right))
        if got is None:
            keep = bytes(48 if wmask & ~m else 49 for m in range(256))
            masks = self.ranks.rmasks if right else self.ranks.masks
            got = self._raised[wmask, right] = int(bytes(masks)[::-1].translate(keep), 2)
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

    def _column(self, w: int) -> tuple[int, int]:
        """The bounds in the flat store of P_{y,w} for every two-sided
        extremal y <= w, whose left and right descent sets contain those of
        w: the index of its first entry and that of its sentinel."""
        lo = self._starts[w]
        if lo >= 0:
            return lo, self._ends[w]
        ranks = self.ranks
        masks, rmasks, lengths, inverse = ranks.masks, ranks.rmasks, self._lengths, ranks.inverse
        wmask, wrmask = masks[w], rmasks[w]
        # every column builds its interval, whose left-raised part is the
        # one-sided records, and the intervals one length up are built from it
        raised = self._support(w) & self._raised_set(wmask)
        self._entries += raised.bit_count()
        lo = self._starts[inverse[w]]
        if lo >= 0:
            # P_{y,w} = P_{y^-1,w^-1}, and inversion swaps the descent sets
            hi = self._ends[inverse[w]]
            pairs = sorted(zip(map(inverse.__getitem__, self._keys[lo:hi]), self._values[lo:hi]))
            return self._store(w, [y for y, _ in pairs], [p for _, p in pairs])
        ibit = wmask & -wmask
        step = ranks.steps[ranks.lowest[wmask]]
        v = step[w]
        # the keys of each column probed below are read as one list for this
        # call, bisection in an array building an int at every comparison,
        # and the value at position i of column v at lov + i in the store
        lov, hiv = self._column(v)
        keysv = self._keys[lov : hiv + 1].tolist()
        vmask, vrmask = masks[v], rmasks[v]
        lw = lengths[w]
        # mu(z, v) q^k P_{y,z} is subtracted for each z in the mu list of v
        # with s_i z < z; P_{y,z} is 0 unless y raises into column z
        zs, ms, lo, hi = self._mu_list(v)
        muv = []
        for j in range(lo, hi):
            z = zs[j]
            if masks[z] & ibit:
                loz, hiz = self._column(z)
                lz = lengths[z]
                keysz = self._keys[loz : hiz + 1].tolist()
                muv.append((keysz, loz, masks[z], rmasks[z], lz, (lw - lz) // 2, ms[j]))
        # read once the columns above are computed: a new column can widen it
        values = self._values
        raise_to, pool_index, polys = ranks.raise_to, self._pool_index, self._polys
        sums, corrections = self._sums, self._corrections
        keys = list(_ranks(raised & self._raised_set(wrmask, True)))
        new = []
        for y in keys:
            x = raise_to(step[y], vmask, vrmask)
            i = bisect_left(keysv, x)
            a = values[lov + i] if keysv[i] == x else 0
            x = raise_to(y, vmask, vrmask)
            i = bisect_left(keysv, x)
            b = values[lov + i] if keysv[i] == x else 0
            p = sums.get((a, b))
            if p is None:
                p = sums[a, b] = pool_index(polys[a] + polys[b].shift(1))
            ly = lengths[y]
            for keysz, loz, zmask, zrmask, lz, k, m in muv:
                if ly > lz:
                    continue
                x = raise_to(y, zmask, zrmask)
                i = bisect_left(keysz, x)
                if keysz[i] == x:
                    c = values[loz + i]
                    key = (p, c, k, m)
                    r = corrections.get(key)
                    if r is None:
                        r = corrections[key] = pool_index(polys[p] - polys[c].shift(k) * m)
                    p = r
            new.append(p)
        return self._store(w, keys, new)

    def _lookup(self, y: int, w: int) -> IntPolynomial:
        if y == w:
            return ONE
        lengths = self._lengths
        if lengths[y] >= lengths[w]:
            return ZERO
        # _column inlined: knuth-mu 8 runs this about 1.5 M times
        lo = self._starts[w]
        if lo < 0:
            lo, hi = self._column(w)
        else:
            hi = self._ends[w]
        ranks = self.ranks
        y = ranks.raise_to(y, ranks.masks[w], ranks.rmasks[w])
        keys = self._keys
        i = bisect_left(keys, y, lo, hi)
        return self._polys[self._values[i]] if keys[i] == y else ZERO

    def _expand(self, c: int, xs: list[int], got) -> None:
        """Set ``got[x]`` to the pool index of P_{x,c} for each x in the
        ascending ranks ``xs``: column c is written first, then xs is walked
        down, an x that lacks a right descent t of c copying x t, else one that
        lacks a left descent s copying s x, both of higher rank (du Cloux 2002).
        ``got`` must read 0 at extremal x missing from column c and past xs."""
        ranks = self.ranks
        masks, rmasks, steps, rsteps = ranks.masks, ranks.rmasks, ranks.steps, ranks.rsteps
        lowest = ranks.lowest
        lo, hi = self._column(c)
        keys, values = self._keys, self._values
        for i in range(lo, hi):
            got[keys[i]] = values[i]
        cmask, crmask = masks[c], rmasks[c]
        for x in reversed(xs):
            if rest := crmask & ~rmasks[x]:
                got[x] = got[rsteps[lowest[rest]][x]]
            elif rest := cmask & ~masks[x]:
                got[x] = got[steps[lowest[rest]][x]]

    def _mu_list(self, w: int) -> MuList:
        """The z with mu(z, w) != 0, ascending, and mu(z, w) of each: the
        flat arrays of every mu list and the bounds of that of w."""
        lo = self._mu_starts[w]
        if lo >= 0:
            return self._mu_zs, self._mu_ms, lo, self._mu_ends[w]
        ranks = self.ranks
        lengths, degrees, polys = self._lengths, self._degrees, self._polys
        # 2 deg P_{y,w} <= l(w) - l(y) - 1 for y != w, so mu(y, w) is nonzero
        # exactly when the degree meets the bound, and it is then the top
        # coefficient
        top = lengths[w] - 1
        lo, hi = self._column(w)
        keys, values = self._keys, self._values
        mus = {}
        for i in range(lo, hi):
            y, p = keys[i], values[i]
            if lengths[y] + 2 * degrees[p] == top:
                mus[y] = polys[p].coeffs[-1]
        # and the lower covers s_i w and w s_i, each with mu 1
        wmask, wrmask = ranks.masks[w], ranks.rmasks[w]
        for i, (step, rstep) in enumerate(zip(ranks.steps, ranks.rsteps)):
            if wmask >> i & 1:
                mus[step[w]] = 1
            if wrmask >> i & 1:
                mus[rstep[w]] = 1
        zs = sorted(mus)
        # every mu of S_n is 0 or 1 for n <= 9 (McLarnan-Warrington 2003),
        # so one that fits no byte raises OverflowError, before anything is
        # stored
        ms = array("B", map(mus.__getitem__, zs))
        lo, hi = len(self._mu_zs), len(self._mu_zs) + len(zs)
        self._mu_zs.fromlist(zs)
        self._mu_ms.extend(ms)
        self._mu_starts[w], self._mu_ends[w] = lo, hi
        return self._mu_zs, self._mu_ms, lo, hi

    def _mu(self, y: int, w: int) -> int:
        lengths = self._lengths
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
        lengths = self._lengths
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
        """The one-sided records of the columns computed so far, those a
        cache file holds for them."""
        return self._entries

    # -- disk cache --------------------------------------------------------

    def cache_path(self) -> Path:
        if self.cache_dir is None:
            raise ValueError("no cache directory configured")
        return self.cache_dir / f"kl_s{self.n}.tsv"

    def _file(self) -> Iterator[bytes]:
        """The cache file of S_n in pieces: the version line, then the
        records of each column, computed first where they are not, so the
        body is never held whole.

        A column's records are its one-sided entries, every y <= w whose
        left descent set contains that of w, expanded by _expand: one list
        serves every column, as they are closed under right raises through
        the descents of w and column w holds every extremal one."""
        names = list(map(format_permutation, self.ranks.perms))
        lengths, polys = self._lengths, self._polys
        texts: list[str] = []  # "c0,c1,..." per pool index
        scratch = [0] * self._size
        yield f"#rscells-kl {FORMAT_VERSION} S_{self.n} left\n".encode()
        for w in self._in_length_order():
            keys = list(_ranks(self._support(w) & self._raised_set(self.ranks.masks[w])))
            self._expand(w, keys, scratch)
            texts += [",".join(map(str, p.coeffs)) for p in polys[len(texts) :]]
            wname = names[w]
            # the keys ascend, so a stable sort by length gives (length, rank)
            keys.sort(key=lengths.__getitem__)
            yield "".join([f"{names[y]}\t{wname}\t{texts[scratch[y]]}\n" for y in keys]).encode()

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
