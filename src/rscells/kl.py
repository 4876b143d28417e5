"""
Kazhdan-Lusztig polynomials for S_n by the descent recursion.

A :class:`KLTable` computes the whole column P_{., w} at once, recursing on
v = s_i w for the smallest descent s_i of w:

    P_{y,w} = P_{s_i y, v} + q P_{y, v}
              - sum over z <= v with s_i z < z and mu(z, v) != 0 of
                mu(z, v) q^((l(w) - l(z)) / 2) P_{y, z}

Only "raised" y are stored, those whose descent set contains the descent set
of w; any other y is first pushed up through the descents of w, which leaves
the polynomial unchanged, so c = 1 in the recursion above.  The mu list of w
consists of the stored entries with a nonzero top-degree coefficient plus the
lower covers s_i w for descents s_i of w (the only non-raised pairs whose mu
can survive the degree bound).

Inside a table an element is its rank in the lexicographic list of S_n
(the identity is rank 0), and lengths, descent masks and the products by
each s_i are arrays over ranks built once per table.  Because ranks follow
lexicographic order, sorting ranks sorts the permutations.  Permutation
tuples appear only at the public methods, which reject anything that is not
a permutation of the table's degree.

The Bruhat interval {y : y <= w} is built from that of v as the union of
it and its image under s_i, and is stored as a flat array of ranks (two
bytes each up to S_8), so the 3.55 M interval elements of S_7 take about
7 MB.

A table holds one IntPolynomial object per distinct value: computed and
loaded entries resolve through a per-table intern dict keyed by the
coefficient tuple, so the 292,070 entries of S_7 share 98 objects.  Because
of that, the two polynomial steps of the recursion, P_{s_i y,v} + q P_{y,v}
and p - mu q^k P_{y,z}, see few distinct operands: both are memoized per
table on the ids of their interned operands, and S_7 computes 1,533 of
them instead of about 385,000.

Columns persist to a tab-separated cache file, one record per line:
``y<TAB>w<TAB>c0,c1,...,cd`` with permutations in digit notation.  Files are
written whole to a uniquely named temporary file and renamed over the old
one, so concurrent readers see either the old or the new complete file.
"""

from __future__ import annotations

import os
import re
from array import array
from pathlib import Path

from .permutations import (
    Perm,
    all_permutations,
    format_permutation,
    length,
    multiply_simple,
)
from .polynomials import ONE, ZERO, IntPolynomial

# a table holds n! * n ranks up front, and digit notation stops at 9
MAX_DEGREE = 9

# the coefficient field exactly as save() writes it; int() alone would also
# take "1_0", " +1" and non-ASCII digits
_COEFFS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


class KLTable:
    """Memoized Kazhdan-Lusztig polynomials and mu-coefficients for S_n.

    Construction enumerates S_n once: ``perms[r]`` is the permutation of
    rank r in lexicographic order, and columns, supports and mu lists are
    keyed by rank.  A support is an ``array`` of ranks.  Equal polynomials
    in the columns are the same object, and the polynomial steps of the
    recursion are memoized on the ids of those objects.
    Degrees above MAX_DEGREE raise ValueError before any enumeration.
    """

    def __init__(self, n: int, side: str = "left", cache_dir=None):
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"degree must lie in 1..{MAX_DEGREE}, got {n}")
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        self.n = n
        self.side = side
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.perms: list[Perm] = list(all_permutations(n))
        self._index = index = {w: r for r, w in enumerate(self.perms)}
        self._lengths = lengths = [length(w) for w in self.perms]
        # _steps[i - 1][r]: rank of s_i * perms[r] on the recursion side
        self._steps = steps = [
            [index[multiply_simple(w, i, side)] for w in self.perms] for i in range(1, n)
        ]
        # descent set on the recursion side, bit i - 1 for s_i
        self._masks = masks = [0] * len(lengths)
        for i, step in enumerate(steps):
            for r, sr in enumerate(step):
                masks[r] |= (lengths[sr] < lengths[r]) << i
        self._columns: dict[int, dict[int, IntPolynomial]] = {0: {0: ONE}}
        # coefficient tuple -> the one polynomial object with that value
        self._intern: dict[tuple[int, ...], IntPolynomial] = {ONE.coeffs: ONE}
        # ranks fit in two bytes up to 8! = 40320
        self._typecode = "H" if len(lengths) <= 1 << 16 else "I"
        self._supports: dict[int, array] = {0: array(self._typecode, (0,))}
        # memos of the two polynomial steps of _column, (a, b) -> a + q b and
        # (p, P, k, m) -> p - m q^k P, keyed on the ids of operands that are
        # interned or module constants, so no id is reused while a key lives
        self._sums: dict[tuple[int, int], IntPolynomial] = {}
        self._corrections: dict[tuple[int, int, int, int], IntPolynomial] = {}
        self._mu_lists: dict[int, tuple[tuple[int, int], ...]] = {}
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
            y = self._steps[(rest & -rest).bit_length() - 1][y]

    # -- the recursion -----------------------------------------------------

    def _support(self, w: int) -> array:
        """The Bruhat interval {y : y <= w} as a flat array of ranks."""
        s = self._supports.get(w)
        if s is not None:
            return s
        mask = self._masks[w]
        step = self._steps[(mask & -mask).bit_length() - 1]
        sv = self._support(step[w])
        ranks = set(sv)
        ranks.update([step[z] for z in sv])
        s = self._supports[w] = array(self._typecode, ranks)
        return s

    def _column(self, w: int) -> dict[int, IntPolynomial]:
        """P_{y,w} for every raised y <= w (descents of w all descend y)."""
        col = self._columns.get(w)
        if col is not None:
            return col
        masks, lengths = self._masks, self._lengths
        wmask = masks[w]
        ibit = wmask & -wmask
        step = self._steps[ibit.bit_length() - 1]
        v = step[w]
        colv = self._column(v)
        vmask = masks[v]
        lw = lengths[w]
        # mu(z, v) q^k P_{y,z} is subtracted for each z in the mu list of v
        # with s_i z < z; P_{y,z} is 0 unless y raises into column z
        muv = [
            (self._column(z), masks[z], lengths[z], (lw - lengths[z]) // 2, m)
            for z, m in self._mu_list(v)
            if masks[z] & ibit
        ]
        raise_to = self._raise_to
        sums, corrections, intern = self._sums, self._corrections, self._intern
        col = {}
        for y in self._support(w):
            if wmask & ~masks[y]:
                continue
            a = colv.get(raise_to(step[y], vmask), ZERO)
            b = colv.get(raise_to(y, vmask), ZERO)
            key = (id(a), id(b))
            p = sums.get(key)
            if p is None:
                p = a + b.shift(1)
                p = sums[key] = intern.setdefault(p.coeffs, p)
            ly = lengths[y]
            for colz, zmask, lz, k, m in muv:
                if ly > lz:
                    continue
                pyz = colz.get(raise_to(y, zmask))
                if pyz is not None:
                    key = (id(p), id(pyz), k, m)
                    r = corrections.get(key)
                    if r is None:
                        r = p - pyz.shift(k) * m
                        r = corrections[key] = intern.setdefault(r.coeffs, r)
                    p = r
            col[y] = p
        self._columns[w] = col
        return col

    def _lookup(self, y: int, w: int) -> IntPolynomial:
        if y == w:
            return ONE
        if self._lengths[y] >= self._lengths[w]:
            return ZERO
        return self._column(w).get(self._raise_to(y, self._masks[w]), ZERO)

    def _mu_list(self, w: int) -> tuple[tuple[int, int], ...]:
        got = self._mu_lists.get(w)
        if got is not None:
            return got
        lw = self._lengths[w]
        pairs = []
        for y, p in self._column(w).items():
            if y == w:
                continue
            d = lw - self._lengths[y]
            if d % 2:
                m = p.coeff((d - 1) // 2)
                if m:
                    pairs.append((y, m))
        for i, step in enumerate(self._steps):
            if self._masks[w] >> i & 1:
                pairs.append((step[w], 1))
        got = tuple(sorted(pairs))
        self._mu_lists[w] = got
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

    def mu_sym(self, y: Perm, w: Perm) -> int:
        """mu on whichever side of the pair is shorter; symmetric."""
        y, w = self._rank(y), self._rank(w)
        return self._mu(y, w) if self._lengths[y] < self._lengths[w] else self._mu(w, y)

    def mu_list(self, w: Perm) -> tuple[tuple[Perm, int], ...]:
        """All (z, mu(z, w)) with z < w and mu(z, w) != 0, z ascending."""
        return tuple((self.perms[z], m) for z, m in self._mu_list(self._rank(w)))

    def support(self, w: Perm) -> frozenset[Perm]:
        """The Bruhat interval {y : y <= w}."""
        return frozenset(self.perms[y] for y in self._support(self._rank(w)))

    def warm(self) -> None:
        """Compute every column, shortest elements first."""
        for w in self._by_length(range(len(self.perms))):
            self._column(w)

    def entry_count(self) -> int:
        return sum(len(col) for col in self._columns.values())

    # -- disk cache --------------------------------------------------------

    def cache_path(self) -> Path:
        if self.cache_dir is None:
            raise ValueError("no cache directory configured")
        suffix = "" if self.side == "left" else ".right"
        return self.cache_dir / f"kl_s{self.n}{suffix}.tsv"

    def save(self) -> None:
        """Write every computed column; atomic replace of the cache file."""
        path = self.cache_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        names = [format_permutation(w) for w in self.perms]
        texts: dict[tuple[int, ...], str] = {}  # "c0,c1,..." per distinct value
        lines = []
        for w in self._by_length(self._columns):
            col = self._columns[w]
            wname = names[w]
            for y in self._by_length(col):
                coeffs = col[y].coeffs
                text = texts.get(coeffs)
                if text is None:
                    text = texts[coeffs] = ",".join(map(str, coeffs))
                lines.append(f"{names[y]}\t{wname}\t{text}\n")
        # a name no other writer uses; on failure nothing is left behind
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "x") as fh:
                fh.write("".join(lines))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def load(self) -> int:
        """Merge columns from the cache file, if present; returns rows read.

        Raises OSError naming the file and line of the first record that is
        malformed (coefficients other than comma-separated ASCII integers
        included) or not of this table's degree."""
        path = self.cache_path()
        if not path.exists():
            return 0
        ranks = {format_permutation(w): r for r, w in enumerate(self.perms)}
        intern = self._intern
        polys: dict[str, IntPolynomial] = {}  # coefficient text -> interned value
        loaded: dict[int, dict[int, IntPolynomial]] = {}
        count = 0
        # undecodable bytes become U+FFFD, which fails below as a bad record
        for lineno, line in enumerate(path.read_text(errors="replace").splitlines(), start=1):
            try:
                ytext, wtext, ctext = line.split("\t")
                y, w = ranks[ytext], ranks[wtext]
                poly = polys.get(ctext)
                if poly is None:
                    if not _COEFFS.fullmatch(ctext):
                        raise ValueError(ctext)
                    poly = IntPolynomial(map(int, ctext.split(",")))
                    poly = polys[ctext] = intern.setdefault(poly.coeffs, poly)
            except (KeyError, ValueError):
                if not line.strip():
                    continue
                raise OSError(f"{path}:{lineno}: bad record for S_{self.n}: {line!r}") from None
            loaded.setdefault(w, {})[y] = poly
            count += 1
        self._columns.update(loaded)
        return count


_DEFAULT_TABLES: dict[tuple[int, str], KLTable] = {}


def default_table(n: int, side: str = "left") -> KLTable:
    """A process-wide shared table per degree; cheap to call repeatedly."""
    key = (n, side)
    table = _DEFAULT_TABLES.get(key)
    if table is None:
        table = _DEFAULT_TABLES.setdefault(key, KLTable(n, side))
    return table


def kl_polynomial(y: Perm, w: Perm) -> IntPolynomial:
    """P_{y,w}(q) via the shared table for the degree of y."""
    return default_table(len(y)).polynomial(y, w)


def mu(y: Perm, w: Perm) -> int:
    return default_table(len(y)).mu(y, w)


def mu_sym(y: Perm, w: Perm) -> int:
    return default_table(len(y)).mu_sym(y, w)
