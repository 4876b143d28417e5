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

Columns persist to a cache file in format 2: a version line
``#rscells-kl 2 S_<n> <side>``, then one record per line,
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

import os
import re
from array import array
from pathlib import Path

from .permutations import Perm, all_permutations, format_permutation, inverse
from .polynomials import ONE, ZERO, IntPolynomial

# a table holds n! * n ranks up front, and digit notation stops at 9
MAX_DEGREE = 9

# the version in the first line of a cache file
FORMAT_VERSION = 2

# the coefficient field exactly as save() writes it; int() alone would also
# take "1_0", " +1" and non-ASCII digits
_COEFFS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


class KLTable:
    """Memoized Kazhdan-Lusztig polynomials and mu-coefficients for S_n.

    Construction enumerates S_n once: ``perms[r]`` is the permutation of
    rank r in lexicographic order, and columns, supports and mu lists are
    keyed by rank.  A support is an ``array`` of ranks.  Equal polynomials
    in the columns are the same object, and the polynomial steps of the
    recursion are memoized on the ids of those objects.  With a cache
    directory, construction loads the cache file, and a column it holds is
    parsed instead of computed when first needed.
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
        # the lexicographic rank of w, written in the factorial base, has the
        # Lehmer code of w as its digits, and their sum is the length
        lengths = [0]
        for k in range(2, n + 1):
            lengths = [d + l for d in range(k) for l in lengths]
        self._lengths = lengths
        # _inverse[r]: rank of perms[r]^-1
        self._inverse = inv = [index[inverse(w)] for w in self.perms]
        # _steps[i - 1][r]: rank of s_i * perms[r] on the recursion side; w s_i
        # swaps two entries, and s_i w = (w^-1 s_i)^-1
        steps = [
            [index[w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]] for w in self.perms]
            for i in range(1, n)
        ]
        if side == "left":
            steps = [[inv[step[r]] for r in inv] for step in steps]
        self._steps = steps
        # descent set on the recursion side, bit i - 1 for s_i
        masks = [0] * len(lengths)
        for i, step in enumerate(steps):
            bit = 1 << i
            masks = [m | bit if lengths[sr] < lr else m for m, sr, lr in zip(masks, step, lengths)]
        self._masks = masks
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
        # the loaded cache file: its bytes, rank -> (start, end) of each
        # column's records in them, and the trailer's record count; columns
        # are parsed on first use, each coefficient text once per table
        self._snapshot = b""
        self._stored: dict[int, tuple[int, int]] = {}
        self._stored_records = 0
        self._coeff_texts: dict[str, IntPolynomial] = {}
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
        if w in self._stored:
            col = self._columns[w] = self._parse_column(w)
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
        """Entries of the columns held so far, computed or parsed from the
        cache; columns of a loaded file count once they are first used."""
        return sum(len(col) for col in self._columns.values())

    # -- disk cache --------------------------------------------------------

    def cache_path(self) -> Path:
        if self.cache_dir is None:
            raise ValueError("no cache directory configured")
        suffix = "" if self.side == "left" else ".right"
        return self.cache_dir / f"kl_s{self.n}{suffix}.tsv"

    def _header(self) -> bytes:
        return f"#rscells-kl {FORMAT_VERSION} S_{self.n} {self.side}\n".encode()

    def _names(self) -> tuple[list[str], dict[str, int]]:
        """The digit name of each rank, and name -> rank; built on first use."""
        if self._name_ranks is None:
            names = list(map(format_permutation, self.perms))
            self._name_ranks = names, dict(zip(names, range(len(names))))
        return self._name_ranks

    def save(self) -> None:
        """Write every computed or loaded column; atomic replace of the cache
        file.  The records stream through one sha256 into the file column by
        column, so the body is never held twice."""
        import hashlib  # OpenSSL takes 4-9 ms to load; runs without a cache skip it

        path = self.cache_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self._names()[0]
        texts: dict[tuple[int, ...], str] = {}  # "c0,c1,..." per distinct value
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
                    col = self._column(w)
                    records += len(col)
                    wname = names[w]
                    offsets.append(f"{wname}:{fh.tell()}")
                    lines = []
                    for y in self._by_length(col):
                        coeffs = col[y].coeffs
                        text = texts.get(coeffs)
                        if text is None:
                            text = texts[coeffs] = ",".join(map(str, coeffs))
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
                f"{path}:1: not a format-{FORMAT_VERSION} KL cache file of S_{self.n} "
                f"({self.side}): the first line is not {header.decode().strip()!r}"
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

    def _parse_column(self, w: int) -> dict[int, IntPolynomial]:
        """The records of column w in the loaded file.

        Raises OSError naming the file and line of the first record that is
        malformed (coefficients other than comma-separated ASCII integers
        included), not of this table's degree, or not of column w."""
        start, stop = self._stored[w]
        names, ranks = self._names()
        wname = names[w]
        polys, intern = self._coeff_texts, self._intern
        col = {}
        # undecodable bytes become U+FFFD, which fails below as a bad record
        lines = self._snapshot[start : stop - 1].decode(errors="replace").split("\n")
        for line in lines:
            try:
                ytext, wtext, ctext = line.split("\t")
                if wtext != wname:
                    raise ValueError(wtext)
                y = ranks[ytext]
                poly = polys.get(ctext)
                if poly is None:
                    if not _COEFFS.fullmatch(ctext):
                        raise ValueError(ctext)
                    poly = IntPolynomial(map(int, ctext.split(",")))
                    poly = polys[ctext] = intern.setdefault(poly.coeffs, poly)
            except (KeyError, ValueError):
                if not line.strip():
                    continue
                # an equal line earlier in the column would have failed first
                lineno = self._snapshot.count(b"\n", 0, start) + lines.index(line) + 1
                raise OSError(
                    f"{self.cache_path()}:{lineno}: bad record for column {wname} "
                    f"of S_{self.n}: {line!r}"
                ) from None
            col[y] = poly
        return col

    def parse_stored(self) -> int:
        """Parse every column of the loaded file; returns the records read.

        Raises OSError on the first bad record, and when the records differ
        in number from the trailer's count (a repeated record included)."""
        records = 0
        for w in self._stored:
            col = self._parse_column(w)
            self._columns.setdefault(w, col)
            records += len(col)
        if records != self._stored_records:
            raise OSError(
                f"{self.cache_path()}: the trailer counts {self._stored_records} records "
                f"but the columns hold {records}"
            )
        return records


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
