"""
Young diagrams and tableaux: Schensted insertion, P/Q-symbols and their
inverse, jeu de taquin, evacuation, reading words, and small enumerations.

Cells are (row, column), 1-based, rows growing downward, so a shape is the
weakly decreasing tuple of its row lengths.  A skew tableau stores only the
entries outside its inner shape.  Construction checks that rows and columns
weakly increase; strictness down columns (column-strict) or in both
directions with entries 1..n (standard) is checked by the public operations
that need it.  Validation happens only there: the bumping and sliding loops
(``_bump``, ``_slide``) work on plain lists and cell dicts, and
``insert_word`` and ``evacuation`` build their ``Tableau`` results once, at
the end.
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


def staircase(n: int) -> tuple[int, ...]:
    """The staircase partition (n-1, n-2, ..., 1)."""
    return tuple(range(n - 1, 0, -1))


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n, largest part first, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def inner_corners(shape: Sequence[int]) -> list[tuple[int, int]]:
    """Removable corners of a partition, as (row, column) cells."""
    out = []
    for x in range(1, len(shape) + 1):
        if x == len(shape) or shape[x] < shape[x - 1]:
            out.append((x, shape[x - 1]))
    return out


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


def row_insert(tab: Tableau, k: int) -> tuple[Tableau, tuple[int, int]]:
    """Insert ``k`` by row bumping; return the new tableau and the added cell."""
    if tab.is_skew:
        raise ValueError("row insertion requires a non-skew tableau")
    if not tab.is_column_strict():
        raise ValueError("row insertion requires a column-strict tableau")
    rows = [list(r) for r in tab.rows]
    cell = _bump(rows, k)
    return Tableau(rows), cell


def column_insert(k: int, tab: Tableau) -> tuple[Tableau, tuple[int, int]]:
    """Insert ``k`` by column bumping, the transpose-dual of :func:`row_insert`.

    Within each column, ``k`` either goes at the bottom (if strictly greater
    than every entry) or bumps the topmost entry >= k into the next column.
    """
    if tab.is_skew:
        raise ValueError("column insertion requires a non-skew tableau")
    if not tab.is_column_strict():
        raise ValueError("column insertion requires a column-strict tableau")
    ncols = tab.outer[0] if tab.rows else 0
    cols = [[tab.rows[x][y] for x in range(len(tab.rows)) if len(tab.rows[x]) > y]
            for y in range(ncols)]
    y = 0
    while True:
        if y == len(cols):
            cols.append([k])
            cell = (1, y + 1)
            break
        col = cols[y]
        pos = bisect_left(col, k)
        if pos == len(col):
            col.append(k)
            cell = (len(col), y + 1)
            break
        col[pos], k = k, col[pos]
        y += 1
    rows = [
        [cols[y2][x2] for y2 in range(len(cols)) if len(cols[y2]) > x2]
        for x2 in range(max(len(c) for c in cols))
    ]
    return Tableau(rows), cell


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


def jdt_slide(tab: Tableau, corner: tuple[int, int]) -> Tableau:
    """One jeu de taquin slide into the given removable corner of the inner
    shape.  The hole repeatedly swallows the smaller of its right and lower
    neighbours (the lower one on ties) until it reaches an outer corner."""
    if not tab.is_skew:
        raise ValueError("slide requires a skew tableau")
    if not tab.is_column_strict():
        raise ValueError("slide requires a column-strict tableau")
    if corner not in inner_corners(tab.inner):
        raise ValueError(f"{corner} is not a removable corner of {tab.inner}")
    cells = tab.to_dict()
    _slide(cells, *corner)
    cx, _cy = corner
    new_inner = list(tab.inner)
    new_inner[cx - 1] -= 1
    return _from_cells(cells, new_inner)


def rectify(tab: Tableau, choose=None) -> Tableau:
    """Slide until the inner shape is gone.  The default corner choice is the
    bottommost removable corner; pass ``choose`` (corners -> corner) to force
    a different slide order.  The result does not depend on the order."""
    while tab.is_skew:
        corners = inner_corners(tab.inner)
        corner = max(corners) if choose is None else choose(corners)
        tab = jdt_slide(tab, corner)
    return tab


# ---------------------------------------------------------------------------
# permutation tableaux and reading words

def permutation_tableau(w: Perm) -> Tableau:
    """The staircase-skew tableau whose antidiagonal cells carry w_1, ..., w_n
    from the bottom-left cell to the top-right cell."""
    w = check_permutation(w)
    n = len(w)
    rows = [(w[n - x],) for x in range(1, n + 1)]
    return Tableau(rows, staircase(n))


def reading_word(tab: Tableau) -> tuple[int, ...]:
    """Rows read bottom to top, each left to right.

    >>> reading_word(Tableau([[1, 1, 2, 4], [2, 3], [4]]))
    (4, 2, 3, 1, 1, 2, 4)
    """
    return tuple(itertools.chain.from_iterable(reversed(tab.rows)))


def reading_word_to_tableau(word: Sequence[int], shape: Sequence[int]):
    """Reassemble a straight-shape tableau from its reading word; None if the
    chopped filling is not column-strict of that shape."""
    shape = tuple(shape)
    if sum(shape) != len(word):
        return None
    rows = []
    pos = 0
    for rlen in reversed(shape):
        rows.append(tuple(word[pos : pos + rlen]))
        pos += rlen
    rows.reverse()
    try:
        tab = Tableau(rows)
    except ValueError:
        return None
    return tab if tab.is_column_strict() else None


# ---------------------------------------------------------------------------
# evacuation and superstandard tableaux

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


def superstandard(shape: Sequence[int]) -> Tableau:
    """The standard tableau whose i-th column holds the consecutive run
    l_1 + ... + l_{i-1} + 1, ..., l_1 + ... + l_i, top to bottom."""
    shape = tuple(shape)
    if shape and not is_partition(shape):
        raise ValueError(f"{shape} is not a partition")
    cols = conjugate(shape)
    starts = [0]
    for l in cols:
        starts.append(starts[-1] + l)
    rows = [
        tuple(starts[y] + x + 1 for y in range(shape[x]))
        for x in range(len(shape))
    ]
    return Tableau(rows)


# ---------------------------------------------------------------------------
# enumeration helpers

def standard_tableaux(shape: Sequence[int], inner: Sequence[int] = ()) -> Iterator[Tableau]:
    """All standard fillings of the (possibly skew) shape."""
    shape = tuple(shape)
    inner = tuple(inner)
    pad = inner + (0,) * (len(shape) - len(inner))
    cells = [
        (x, y)
        for x in range(1, len(shape) + 1)
        for y in range(pad[x - 1] + 1, shape[x - 1] + 1)
    ]
    m = len(cells)
    filled: dict[tuple[int, int], int] = {}

    def placeable(cell):
        x, y = cell
        left = (x, y - 1)
        above = (x - 1, y)
        if y - 1 > pad[x - 1] and left not in filled:
            return False
        if x > 1 and pad[x - 2] < y <= shape[x - 2] and above not in filled:
            return False
        return True

    def fill(t: int) -> Iterator[Tableau]:
        if t > m:
            yield _from_cells(dict(filled), inner)
            return
        for cell in cells:
            if cell not in filled and placeable(cell):
                filled[cell] = t
                yield from fill(t + 1)
                del filled[cell]

    return fill(1)


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
