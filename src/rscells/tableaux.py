"""
Young diagrams and tableaux: Schensted insertion, P/Q-symbols and their
inverse, evacuation by jeu de taquin slides, reading words, and the
column-strict fillings of a shape.

Cells are (row, column), 1-based, rows growing downward, so a shape is the
weakly decreasing tuple of its row lengths.  A skew tableau stores only the
entries outside its inner shape.  Construction checks that rows and columns
weakly increase; strictness down columns (column-strict) or in both
directions with entries 1..n (standard) is checked by the public operations
that need it.  Validation happens only there: the bumping and sliding loops
(``_bump``, also the bump of the crystal's symbols, and ``_slide``) work on
plain lists and cell dicts, and ``insert_word`` and ``evacuation`` build
their ``Tableau`` results once.  Jeu de taquin on skew shapes,
rectification and the enumeration of standard fillings are the test
oracles in ``tests/oracles.py`` that evacuation and the P-symbol are
checked against.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence

from .permutations import Perm, check_permutation


# ---------------------------------------------------------------------------
# shapes

def is_partition(seq: Sequence[int]) -> bool:
    return all(a >= 1 for a in seq) and all(
        seq[k] >= seq[k + 1] for k in range(len(seq) - 1)
    )


def conjugate(shape: Sequence[int]) -> tuple[int, ...]:
    """Column lengths of a partition.

    >>> conjugate((3, 2))
    (2, 2, 1)
    """
    if not shape:
        return ()
    return tuple(sum(1 for a in shape if a >= j) for j in range(1, shape[0] + 1))


# ---------------------------------------------------------------------------
# the tableau value type

class Tableau:
    """Filling of a (possibly skew) Young diagram with positive integers."""

    __slots__ = ("rows", "inner")

    def __init__(self, rows: Sequence[Sequence[int]] = (), inner: Sequence[int] = ()):
        rows = [tuple(r) for r in rows]
        inner = tuple(m for m in inner)
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        while rows and not rows[-1] and len(rows) > len(inner):
            rows.pop()
        self.rows = tuple(rows)
        self.inner = inner
        self._validate()

    def _validate(self) -> None:
        rows, inner = self.rows, self.inner
        if len(inner) > len(rows):
            raise ValueError("inner shape has more rows than the tableau")
        if inner and not is_partition(inner):
            raise ValueError(f"inner shape {inner} is not a partition")
        outer = self.outer
        for k in range(len(outer) - 1):
            if outer[k] < outer[k + 1]:
                raise ValueError(f"row lengths {outer} are not weakly decreasing")
        pad = inner + (0,) * (len(rows) - len(inner))
        for x, row in enumerate(rows):
            for e in row:
                if not isinstance(e, int) or e < 1:
                    raise ValueError(f"entry {e!r} is not a positive integer")
            if any(row[k] > row[k + 1] for k in range(len(row) - 1)):
                raise ValueError(f"row {x + 1} is not weakly increasing: {row}")
        for x in range(1, len(rows)):
            lo = max(pad[x - 1], pad[x])
            hi = min(outer[x - 1], outer[x])
            for y in range(lo + 1, hi + 1):
                above = rows[x - 1][y - 1 - pad[x - 1]]
                here = rows[x][y - 1 - pad[x]]
                if above > here:
                    raise ValueError(
                        f"column {y} decreases between rows {x} and {x + 1}"
                    )

    @property
    def outer(self) -> tuple[int, ...]:
        pad = self.inner + (0,) * (len(self.rows) - len(self.inner))
        return tuple(m + len(r) for m, r in zip(pad, self.rows))

    @property
    def size(self) -> int:
        """Number of filled cells."""
        return sum(len(r) for r in self.rows)

    @property
    def is_skew(self) -> bool:
        return bool(self.inner)

    def _inner_at(self, x: int) -> int:
        return self.inner[x - 1] if x <= len(self.inner) else 0

    def entry(self, x: int, y: int) -> int:
        if not 1 <= x <= len(self.rows):
            raise ValueError(f"no cell ({x}, {y})")
        off = y - self._inner_at(x) - 1
        if not 0 <= off < len(self.rows[x - 1]):
            raise ValueError(f"no cell ({x}, {y})")
        return self.rows[x - 1][off]

    def cells(self) -> Iterator[tuple[int, int]]:
        for x, row in enumerate(self.rows, start=1):
            base = self._inner_at(x)
            for off in range(len(row)):
                yield (x, base + off + 1)

    def to_dict(self) -> dict[tuple[int, int], int]:
        return {(x, y): self.entry(x, y) for (x, y) in self.cells()}

    def entries(self) -> Iterator[int]:
        return itertools.chain.from_iterable(self.rows)

    def is_column_strict(self) -> bool:
        """Rows weakly increase (guaranteed), columns strictly increase."""
        pad = self.inner + (0,) * (len(self.rows) - len(self.inner))
        outer = self.outer
        for x in range(1, len(self.rows)):
            lo = max(pad[x - 1], pad[x])
            hi = min(outer[x - 1], outer[x])
            for y in range(lo + 1, hi + 1):
                if self.rows[x - 1][y - 1 - pad[x - 1]] >= self.rows[x][y - 1 - pad[x]]:
                    return False
        return True

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
        cells = {(y, x): e for (x, y), e in self.to_dict().items()}
        return _from_cells(cells, conjugate(self.inner))

    def to_json(self) -> dict:
        out: dict = {"rows": [list(r) for r in self.rows]}
        if self.inner:
            out["inner"] = list(self.inner)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Tableau":
        if not isinstance(data, dict) or "rows" not in data:
            raise ValueError(f"malformed tableau object: {data!r}")
        return cls(data["rows"], data.get("inner", ()))

    def render(self) -> str:
        """One row per line; inner cells shown as dots."""
        lines = []
        for x, row in enumerate(self.rows, start=1):
            cells = ["."] * self._inner_at(x) + [str(e) for e in row]
            lines.append(" ".join(cells))
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tableau)
            and self.rows == other.rows
            and self.inner == other.inner
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.inner))

    def __repr__(self) -> str:
        if self.inner:
            return f"Tableau({[list(r) for r in self.rows]!r}, inner={list(self.inner)!r})"
        return f"Tableau({[list(r) for r in self.rows]!r})"


EMPTY_TABLEAU = Tableau()


def _from_cells(cells: dict[tuple[int, int], int], inner: Sequence[int]) -> Tableau:
    """Rebuild a tableau from a cell dict whose rows are contiguous."""
    inner = tuple(inner)
    nrows = max(max((x for x, _ in cells), default=0), len(inner))
    rows = []
    for x in range(1, nrows + 1):
        base = inner[x - 1] if x <= len(inner) else 0
        ys = sorted(y for (xx, y) in cells if xx == x)
        if ys != list(range(base + 1, base + len(ys) + 1)):
            raise ValueError(f"row {x} is not contiguous: columns {ys}")
        rows.append(tuple(cells[(x, y)] for y in ys))
    return Tableau(rows, inner)


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
    bumping in decreasing order of the entries of ``q``."""
    if not p.is_standard() or not q.is_standard():
        raise ValueError("both tableaux must be standard")
    if p.outer != q.outer or p.is_skew or q.is_skew:
        raise ValueError("tableaux must share a non-skew shape")
    rows = [list(r) for r in p.rows]
    where = {q.entry(x, y): (x, y) for (x, y) in q.cells()}
    out = []
    for t in range(p.size, 0, -1):
        x, y = where[t]
        if y != len(rows[x - 1]):
            raise ValueError(f"entry {t} of the recording tableau is not a corner")
        k = rows[x - 1].pop()
        if not rows[x - 1]:
            rows.pop()
        for r in range(x - 2, -1, -1):
            pos = bisect_left(rows[r], k) - 1
            rows[r][pos], k = k, rows[r][pos]
        out.append(k)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# jeu de taquin

def _slide(cells: dict[tuple[int, int], int], x: int, y: int) -> tuple[int, int]:
    """Move the hole at (x, y) outward in place: it repeatedly swallows the
    smaller of its right and lower neighbours (the lower one on ties).
    Return the outer corner it vacates."""
    while True:
        below = cells.get((x + 1, y))
        right = cells.get((x, y + 1))
        if below is None and right is None:
            return x, y
        if right is None or (below is not None and below <= right):
            cells[(x, y)] = cells.pop((x + 1, y))
            x += 1
        else:
            cells[(x, y)] = cells.pop((x, y + 1))
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
    if tab.is_skew or not tab.is_standard():
        raise ValueError("evacuation requires a standard tableau")
    n = tab.size
    cells = tab.to_dict()
    out: dict[tuple[int, int], int] = {}
    for label in range(n, 0, -1):
        del cells[(1, 1)]
        out[_slide(cells, 1, 1)] = label
    return _from_cells(out, ())


# ---------------------------------------------------------------------------
# enumeration helpers

def semistandard_tableaux(
    shape: Sequence[int], max_entry: int, inner: Sequence[int] = ()
) -> Iterator[Tableau]:
    """All column-strict fillings with entries at most ``max_entry``."""
    shape = tuple(shape)
    inner = tuple(inner)
    pad = inner + (0,) * (len(shape) - len(inner))
    cells = [
        (x, y)
        for x in range(1, len(shape) + 1)
        for y in range(pad[x - 1] + 1, shape[x - 1] + 1)
    ]
    filled: dict[tuple[int, int], int] = {}

    def fill(k: int) -> Iterator[Tableau]:
        if k == len(cells):
            yield _from_cells(dict(filled), inner)
            return
        x, y = cells[k]
        lo = 1
        if y - 1 > pad[x - 1]:
            lo = max(lo, filled[(x, y - 1)])
        if x > 1 and pad[x - 2] < y <= shape[x - 2]:
            lo = max(lo, filled[(x - 1, y)] + 1)
        for e in range(lo, max_entry + 1):
            filled[cells[k]] = e
            yield from fill(k + 1)
            del filled[cells[k]]

    return fill(0)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
