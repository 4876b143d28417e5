"""
Young diagrams and tableaux: Schensted insertion, P/Q-symbols and their
inverse, evacuation by jeu de taquin slides, reading words, and the
column-strict fillings of a shape.

A tableau is its tuple of rows, top row first, so a shape is the weakly
decreasing tuple of its row lengths; messages number rows and columns from
1.  Construction checks that rows and columns weakly increase; strictness
down columns (column-strict) or in both directions with entries 1..n
(standard) is checked by the public operations that need it.  Validation
happens only there: the bumping and sliding loops (``_bump`` and
``_slide``) work on plain lists of rows, and ``insert_word`` and
``evacuation`` build their ``Tableau`` results once.

The exhaustive callers do not insert one word at a time.  ``_symbols``
walks the prefix tree of all words of length n over 1..r, or of the
permutations of S_n, level by level in lexicographic order (the rank order
of ``Ranks.perms``).  Since P(w.a) is P(w) with a inserted (the plactic
monoid), it bumps each distinct P once per letter that may follow it, and
it gives every word a P index, into the distinct P as row tuples, and a
Q code: the base-n number of the rows that the bumps grew, first letter
most significant, which determines Q (``q_code`` and ``q_tableau``
convert).  The crystal's checks and the permutation suites share this one
walk.  Jeu de taquin on skew shapes, rectification and the enumeration of
standard fillings are the test oracles in ``tests/oracles.py`` that
evacuation and the P-symbol are checked against.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from functools import lru_cache

from .permutations import Perm, check_permutation

Rows = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# the tableau value type

class Tableau:
    """Filling of a Young diagram with positive integers."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]] = ()):
        rows = [tuple(r) for r in rows]
        while rows and not rows[-1]:
            rows.pop()
        self.rows = tuple(rows)
        self._validate()

    def _validate(self) -> None:
        outer = self.outer
        for k in range(len(outer) - 1):
            if outer[k] < outer[k + 1]:
                raise ValueError(f"row lengths {outer} are not weakly decreasing")
        for x, row in enumerate(self.rows):
            for e in row:
                # bool is an int subclass, so JSON true would pass for 1
                if type(e) is not int or e < 1:
                    raise ValueError(f"entry {e!r} is not a positive integer")
            if any(row[k] > row[k + 1] for k in range(len(row) - 1)):
                raise ValueError(f"row {x + 1} is not weakly increasing: {row}")
        for x, y, above, here in self._vertical_pairs():
            if above > here:
                raise ValueError(f"column {y} decreases between rows {x} and {x + 1}")

    def _vertical_pairs(self) -> Iterator[tuple[int, int, int, int]]:
        """(x, y, above, here) for each cell (x + 1, y) with a cell (x, y)
        above it, and their entries."""
        rows = self.rows
        for x in range(1, len(rows)):
            for y, (above, here) in enumerate(zip(rows[x - 1], rows[x]), start=1):
                yield x, y, above, here

    @property
    def outer(self) -> tuple[int, ...]:
        """The shape: the row lengths."""
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        """Number of cells."""
        return sum(len(r) for r in self.rows)

    def entries(self) -> Iterator[int]:
        return itertools.chain.from_iterable(self.rows)

    def is_column_strict(self) -> bool:
        """Rows weakly increase (guaranteed), columns strictly increase."""
        return all(above < here for _x, _y, above, here in self._vertical_pairs())

    def is_row_strict(self) -> bool:
        return all(
            row[k] < row[k + 1] for row in self.rows for k in range(len(row) - 1)
        )

    def is_standard(self) -> bool:
        """Entries are exactly 1..size, strictly increasing in rows and columns."""
        n = self.size
        return (
            sorted(self.entries()) == list(range(1, n + 1))
            and self.is_row_strict()
            and self.is_column_strict()
        )

    def transpose(self) -> "Tableau":
        """Reflect across the main diagonal."""
        columns = itertools.zip_longest(*self.rows)
        return Tableau([[e for e in column if e is not None] for column in columns])

    def to_json(self) -> dict:
        return {"rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data) -> "Tableau":
        """The tableau of ``{"rows": [[...], ...]}``: a list of lists of
        positive integers, and no other key.  Anything else raises
        ValueError, since this is where the CLI reads a tableau."""
        if not isinstance(data, dict) or set(data) != {"rows"}:
            raise ValueError(f"malformed tableau object: {data!r}")
        rows = data["rows"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError(f"tableau rows are not a list of lists: {rows!r}")
        return cls(rows)

    def render(self) -> str:
        """One row per line, entries separated by spaces."""
        return "\n".join(" ".join(map(str, row)) for row in self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Tableau({[list(r) for r in self.rows]!r})"


# ---------------------------------------------------------------------------
# Schensted insertion and the Robinson-Schensted correspondence

def _bump(rows: list[list[int]], k: int) -> tuple[int, int]:
    """Row-insert ``k`` into ``rows`` in place; return the added cell.

    Within each row, ``k`` either goes at the end (if no entry exceeds it) or
    bumps the leftmost strictly greater entry into the next row.
    """
    for x, row in enumerate(rows, start=1):
        pos = bisect_right(row, k)
        if pos == len(row):
            row.append(k)
            return x, len(row)
        row[pos], k = k, row[pos]
    rows.append([k])
    return len(rows), 1


def insert_word(word: Sequence[int]) -> tuple[Tableau, Tableau]:
    """Row-insert the letters of ``word`` in order; return (P, recording Q)."""
    prows: list[list[int]] = []
    qrows: list[list[int]] = []
    for t, k in enumerate(word, start=1):
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"letter {k!r} is not a positive integer")
        x, _y = _bump(prows, k)
        if x > len(qrows):
            qrows.append([])
        qrows[x - 1].append(t)
    return Tableau(prows), Tableau(qrows)


def p_symbol(w: Perm) -> Tableau:
    """Insertion tableau of a permutation.

    >>> p_symbol((3, 1, 5, 2, 4))
    Tableau([[1, 2, 4], [3, 5]])
    """
    return insert_word(check_permutation(w))[0]


def q_symbol(w: Perm) -> Tableau:
    """Recording tableau of a permutation; it equals the insertion tableau
    of the inverse, which the tests check exhaustively for n <= 7.

    >>> q_symbol((3, 1, 5, 2, 4))
    Tableau([[1, 3, 5], [2, 4]])
    """
    return insert_word(check_permutation(w))[1]


def rs_inverse(p: Tableau, q: Tableau) -> Perm:
    """The unique permutation with the given P- and Q-symbols, by reverse
    bumping in decreasing order of the entries of ``q``.  Both are standard
    and of one shape, so the largest entry left in ``q`` always ends its
    row at an outer corner of the shape left in ``p``."""
    if not p.is_standard() or not q.is_standard():
        raise ValueError("both tableaux must be standard")
    if p.outer != q.outer:
        raise ValueError("tableaux must share a shape")
    rows = [list(r) for r in p.rows]
    where = {t: x for x, row in enumerate(q.rows) for t in row}
    out = []
    for t in range(p.size, 0, -1):
        x = where[t]
        k = rows[x].pop()
        if not rows[x]:
            rows.pop()
        for r in range(x - 1, -1, -1):
            pos = bisect_left(rows[r], k) - 1
            rows[r][pos], k = k, rows[r][pos]
        out.append(k)
    return tuple(reversed(out))


@lru_cache(maxsize=1)
def _symbols(
    n: int, r: int, permutations: bool = False
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[Rows, ...], dict[Rows, int]]:
    """(P index by rank, Q code by rank, the distinct P as row tuples, their
    indices) of all words of length n over 1..r, or with ``permutations``
    of the words that repeat no letter, each in lexicographic order.  The
    prefix w.a has P(w.a) = P(w) <- a, and the letters that may follow w
    are those not in P(w) when letters are not repeated, so a walk down the
    prefix tree bumps each distinct P once per letter that may follow it.
    Each level keeps only the distinct P of its own length.  The last walk
    is kept for the process, so the suites of a degree share it, and its
    sequences are tuples, which no caller can edit."""
    prows: list[Rows] = [()]
    pindex = {(): 0}
    pidx, qcode = [0], [0]
    for _ in range(n):
        next_rows: list[Rows] = []
        pindex = {}
        steps: dict[int, list[tuple[int, int]]] = {}  # P -> (P <- a, row it grew) per letter
        next_p, next_q = [], []
        for p, q in zip(pidx, qcode):
            if p not in steps:
                steps[p] = []
                used = set(itertools.chain.from_iterable(prows[p])) if permutations else ()
                for a in range(1, r + 1):
                    if a in used:
                        continue
                    grown = [list(row) for row in prows[p]]
                    x = _bump(grown, a)[0] - 1
                    rows = tuple(map(tuple, grown))
                    if pindex.setdefault(rows, len(next_rows)) == len(next_rows):
                        next_rows.append(rows)
                    steps[p].append((pindex[rows], x))
            for p2, x in steps[p]:
                next_p.append(p2)
                next_q.append(q * n + x)
        prows, pidx, qcode = next_rows, next_p, next_q
    return tuple(pidx), tuple(qcode), tuple(prows), pindex


def q_code(tab: Tableau) -> int:
    """The Q code of a standard tableau with n entries: the base-n number
    whose t-th digit, most significant first, is the 0-based row of t.

    >>> q_code(Tableau([[1, 3], [2]]))
    3
    """
    if not tab.is_standard():
        raise ValueError("a Q code needs a standard tableau")
    n = tab.size
    row_of = [0] * (n + 1)
    for x, row in enumerate(tab.rows):
        for t in row:
            row_of[t] = x
    code = 0
    for t in range(1, n + 1):
        code = code * n + row_of[t]
    return code


def q_tableau(code: int, n: int) -> Tableau:
    """The standard tableau with n entries whose Q code is ``code``.

    >>> q_tableau(3, 3)
    Tableau([[1, 3], [2]])
    """
    if n < 0 or not 0 <= code < n**n:
        raise ValueError(f"{code} is not a Q code of degree {n}")
    digits = []
    for _ in range(n):
        code, x = divmod(code, n)
        digits.append(x)
    rows: list[list[int]] = []
    for t, x in enumerate(reversed(digits), start=1):
        if x > len(rows):
            raise ValueError(f"entry {t} skips a row")
        if x == len(rows):
            rows.append([])
        rows[x].append(t)
    return Tableau(rows)


# ---------------------------------------------------------------------------
# jeu de taquin

def _slide(rows: list[list[int]], x: int, y: int) -> tuple[int, int]:
    """Move the hole at rows[x][y], 0-based, outward in place: it
    repeatedly swallows the smaller of its right and lower neighbours (the
    lower one on ties).  Pop the outer corner it vacates and return it; a
    row it empties stays, as a row of no cells."""
    while True:
        row = rows[x]
        right = row[y + 1] if y + 1 < len(row) else None
        below = rows[x + 1][y] if x + 1 < len(rows) and y < len(rows[x + 1]) else None
        if below is None and right is None:
            row.pop()
            return x, y
        if right is None or (below is not None and below <= right):
            row[y] = below
            x += 1
        else:
            row[y] = right
            y += 1


# ---------------------------------------------------------------------------
# reading words

def reading_word(tab: Tableau) -> tuple[int, ...]:
    """Rows read bottom to top, each left to right.

    >>> reading_word(Tableau([[1, 1, 2, 4], [2, 3], [4]]))
    (4, 2, 3, 1, 1, 2, 4)
    """
    return tuple(itertools.chain.from_iterable(reversed(tab.rows)))


# ---------------------------------------------------------------------------
# evacuation

def evacuation(tab: Tableau) -> Tableau:
    """Schuetzenberger evacuation: repeatedly delete the smallest entry by a
    slide into (1, 1) and record the vacated cell with the complement label."""
    if not tab.is_standard():
        raise ValueError("evacuation requires a standard tableau")
    rows = [list(row) for row in tab.rows]
    out = [list(row) for row in tab.rows]
    for label in range(tab.size, 0, -1):
        x, y = _slide(rows, 0, 0)
        out[x][y] = label
    return Tableau(out)


# ---------------------------------------------------------------------------
# enumeration helpers

def _semistandard_rows(shape: Sequence[int], max_entry: int) -> Iterator[Rows]:
    """The rows of every column-strict filling with entries at most
    ``max_entry``, as tuples, unchecked."""
    shape = tuple(shape)
    cells = [(x, y) for x in range(len(shape)) for y in range(shape[x])]
    rows: list[list[int]] = [[] for _ in shape]

    def fill(k: int) -> Iterator[Rows]:
        if k == len(cells):
            yield tuple(map(tuple, rows))
            return
        x, y = cells[k]  # 0-based
        row = rows[x]
        lo = row[-1] if y else 1
        if x and y < shape[x - 1]:
            lo = max(lo, rows[x - 1][y] + 1)
        for e in range(lo, max_entry + 1):
            row.append(e)
            yield from fill(k + 1)
            row.pop()

    return fill(0)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
