"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the code paths it checks: Bruhat order
by sorted-prefix dominance and via subwords of one fixed reduced word,
reduced words and minimal coset representatives by stripping descents,
composition via explicit function application, involution counting by
direct scan, the Knuth moves K_ij through minimal coset representatives,
crystal operators by the recursive tensor-product rule, crystal components
by a search on word tuples, highest-weight words one word at a time, the
crystal-djm checks on validated tableaux built per word, operator and
reading word, a skew tableau type of its own (an inner shape and a cell
dict), jeu de taquin slides on it with their own sliding loop,
rectification, the permutation tableau, standard and column-strict
fillings of skew shapes, evacuation by rectifying punctured
tableaux, T-basis products by expanding into generators, C'-expansions by
peeling top terms, the q = 1 action from mu lists, the cell graph on
permutation tuples with Tarjan's state in dicts, left closures by reverse
reachability in the cell graph, the permutation suites by inserting each
permutation on its own, the cell suites by scanning every pair of
elements, and the KL columns by the descent recursion on dict columns and
set supports.  A few queries on library objects that only the tests make
(the cell preorder on elements, mu lists of tuples, the empty tableau and
the column-strict tableaux of a shape as Tableau objects) live here too,
and so does the sample of ranks that the S_8 and S_9 rank checks walk.
"""

import itertools
from bisect import insort
from collections import deque
from collections.abc import Iterator, Sequence
from functools import lru_cache
from math import factorial

from rscells.cells import CellPartition, cells, left_cell_graph
from rscells.crystal import _check_word, e_op, f_op
from rscells.hecke import HeckeElement, c_prime
from rscells.kl import KLTable, default_table
from rscells.permutations import (
    Perm,
    check_permutation,
    format_permutation as _fmt,
    identity,
    inverse,
    left_descents,
    length,
    longest_element,
    multiply_simple,
    right_descents,
)
from rscells.polynomials import ONE, ZERO, LaurentPoly
from rscells.knuth import knuth_class
from rscells.tableaux import (
    Tableau,
    _semistandard_rows,
    evacuation,
    insert_word,
    p_symbol,
    q_symbol,
    reading_word,
)
from rscells.verify import Report


def all_perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def compose_as_maps(u, v):
    """(u o v)(i) = u(v(i)) with explicit dict maps."""
    um = {i: a for i, a in enumerate(u, start=1)}
    vm = {i: a for i, a in enumerate(v, start=1)}
    return tuple(um[vm[i]] for i in range(1, len(u) + 1))


# -- queries on library objects that only the tests make ----------------------

def leq_elements(part: CellPartition, y: Perm, w: Perm) -> bool:
    """Whether y <= w in the preorder of ``part`` (left: y <=_L w)."""
    return (part.cell_index(y), part.cell_index(w)) in part.leq


def as_sets(part: CellPartition) -> set[frozenset]:
    return {frozenset(cell) for cell in part.cells}


def max_exponent(poly: LaurentPoly):
    """The largest exponent of v; None for the zero polynomial."""
    return max(poly.terms) if poly.terms else None


EMPTY_TABLEAU = Tableau()


def semistandard_tableaux(shape: Sequence[int], max_entry: int) -> Iterator[Tableau]:
    """All column-strict fillings of ``shape`` with entries at most
    ``max_entry``, in the order the crystal checks list them."""
    return (Tableau(rows) for rows in _semistandard_rows(shape, max_entry))


def mu_list(table: KLTable, w: Perm) -> tuple[tuple[Perm, int], ...]:
    """All (z, mu(z, w)) with z < w and mu(z, w) != 0, z ascending."""
    perms = table.ranks.perms
    return tuple((perms[z], m) for z, m in zip(*table._mu_list(table.ranks.rank(w))))


# -- Bruhat order, reduced words and coset representatives --------------------

def bruhat_leq(y: Perm, w: Perm) -> bool:
    """Bruhat order test by sorted-prefix dominance.

    For every k, the increasingly sorted prefix of y of length k must be
    entrywise at most the sorted prefix of w.

    >>> bruhat_leq((1, 3, 2, 4), (3, 4, 1, 2))
    True
    >>> bruhat_leq((3, 2, 1), (3, 1, 2))
    False
    """
    if len(y) != len(w):
        raise ValueError(f"degree mismatch: {len(y)} vs {len(w)}")
    ys: list[int] = []
    ws: list[int] = []
    for k in range(len(y) - 1):
        insort(ys, y[k])
        insort(ws, w[k])
        if any(a > b for a, b in zip(ys, ws)):
            return False
    return True


def reduced_word(w: Perm) -> tuple[int, ...]:
    """A reduced expression for ``w``, obtained by repeatedly stripping the
    smallest right descent.  The product s_{i_1} ... s_{i_r} of the returned
    indices equals ``w``, and r == length(w).

    >>> reduced_word((3, 2, 1))
    (1, 2, 1)
    >>> reduced_word((1, 2, 3))
    ()
    """
    out = []
    while True:
        des = right_descents(w)
        if not des:
            return tuple(reversed(out))
        i = min(des)
        out.append(i)
        w = multiply_simple(w, i)


def min_coset_rep(w: Perm, i: int, j: int) -> Perm:
    """The minimal-length element of the right coset w<s_i, s_j>, j = i +/- 1.

    >>> min_coset_rep((3, 2, 1), 1, 2)
    (1, 2, 3)
    """
    if abs(i - j) != 1:
        raise ValueError(f"indices must be adjacent, got {i}, {j}")
    a, b = min(i, j), max(i, j)
    while True:
        if w[a - 1] > w[a]:
            w = multiply_simple(w, a)
        elif w[b - 1] > w[b]:
            w = multiply_simple(w, b)
        else:
            return w


def bruhat_leq_subwords(y, w):
    """y <= w iff some subword of one reduced word of w multiplies to y."""
    word = reduced_word(w)
    n = len(w)
    for picks in itertools.product((False, True), repeat=len(word)):
        prod = identity(n)
        for keep, i in zip(picks, word):
            if keep:
                prod = multiply_simple(prod, i)
        if prod == y:
            return True
    return False


def involution_count(n):
    count = 0
    for w in all_perms(n):
        if all(w[w[i] - 1] == i + 1 for i in range(n)):
            count += 1
    return count


# -- crystal operators by the two-factor tensor rule --------------------------
#
#   e_i(b1 (x) b2) = b1 (x) e_i(b2)   if eps_i(b1) <= phi_i(b2), else e_i(b1) (x) b2
#   f_i(b1 (x) b2) = b1 (x) f_i(b2)   if eps_i(b1) <  phi_i(b2), else f_i(b1) (x) b2
#
# applied recursively with b1 the first letter; phi and eps count by iterated
# application.


@lru_cache(maxsize=None)
def tensor_f(i, word):
    if len(word) == 1:
        return (i + 1,) if word[0] == i else None
    head, tail = word[:1], word[1:]
    if tensor_eps(i, head) < tensor_phi(i, tail):
        new_tail = tensor_f(i, tail)
        return None if new_tail is None else head + new_tail
    new_head = tensor_f(i, head)
    return None if new_head is None else new_head + tail


@lru_cache(maxsize=None)
def tensor_e(i, word):
    if len(word) == 1:
        return (i,) if word[0] == i + 1 else None
    head, tail = word[:1], word[1:]
    if tensor_eps(i, head) <= tensor_phi(i, tail):
        new_tail = tensor_e(i, tail)
        return None if new_tail is None else head + new_tail
    new_head = tensor_e(i, head)
    return None if new_head is None else new_head + tail


def _string_length(op, i, word):
    count = 0
    while (word := op(i, word)) is not None:
        count += 1
    return count


@lru_cache(maxsize=None)
def tensor_phi(i, word):
    return _string_length(tensor_f, i, word)


@lru_cache(maxsize=None)
def tensor_eps(i, word):
    return _string_length(tensor_e, i, word)


# -- the crystal of words on tuples and Tableau objects ---------------------

def component(word, r):
    """Connected component: closure of the word under all e_i and f_i, by a
    breadth-first search on tuples through the cached ``e_op``/``f_op``."""
    word = _check_word(word, r)
    seen = {word}
    queue = deque((word,))
    while queue:
        cur = queue.popleft()
        for i in range(1, r):
            for op in (e_op, f_op):
                nxt = op(i, cur)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return frozenset(seen)


def highest_weight_rep_greedy(word, r):
    """The highest-weight word of the component of ``word``, one word at a
    time through the cached ``e_op``: apply e_i for the least i that does
    not annihilate until every e_i does."""
    word = _check_word(word, r)
    while True:
        for i in range(1, r):
            nxt = e_op(i, word)
            if nxt is not None:
                word = nxt
                break
        else:
            return word


def reading_word_to_tableau(word, shape):
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


def djm_violations_by_tableaux(n, r):
    """The crystal-djm checks (a)-(c) on tuples and validated tableaux:
    components by ``component``, symbols by ``insert_word``, and one reading
    word chopped back into a ``Tableau`` per (word, i, operator)."""
    violations = []
    seen = set()
    for label in itertools.product(range(1, r + 1), repeat=n):
        if label in seen:
            continue
        words = component(label, r)
        seen |= words
        q = insert_word(label)[1]
        shape = q.outer
        symbols = {}
        for b in sorted(words):
            symbols[b], q_b = insert_word(b)
            if q_b != q:
                violations.append(
                    f"component {label}: word {b} has a different recording tableau"
                )
        image = set(symbols.values())
        if len(image) != len(words):
            violations.append(f"component {label}: insertion is not injective")
        target = set(semistandard_tableaux(shape, r))
        if image != target:
            violations.append(
                f"component {label}: image has {len(image)} tableaux, "
                f"B(lambda) has {len(target)}"
            )
        for b in sorted(words):
            rw = reading_word(symbols[b])
            for i in range(1, r):
                for op in (e_op, f_op):
                    b2 = op(i, b)
                    rw2 = op(i, rw)
                    if (b2 is None) != (rw2 is None):
                        violations.append(
                            f"word {b}, op {op.__name__} i={i}: "
                            f"annihilation mismatch with the reading word"
                        )
                        continue
                    if b2 is None:
                        continue
                    t2 = reading_word_to_tableau(rw2, shape)
                    if t2 is None:
                        violations.append(
                            f"word {b}, op {op.__name__} i={i}: reading word "
                            f"left the tableau crystal"
                        )
                    elif symbols[b2] != t2:
                        violations.append(
                            f"word {b}, op {op.__name__} i={i}: insertion does "
                            f"not intertwine the operators"
                        )
    return r**n, violations


# -- skew tableaux, jeu de taquin, rectification and standard fillings --------

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


def is_partition(seq: Sequence[int]) -> bool:
    return all(a >= 1 for a in seq) and all(
        seq[k] >= seq[k + 1] for k in range(len(seq) - 1)
    )


def conjugate(shape: Sequence[int]) -> tuple[int, ...]:
    """Column lengths of a partition."""
    if not shape:
        return ()
    return tuple(sum(1 for a in shape if a >= j) for j in range(1, shape[0] + 1))


def inner_corners(shape: Sequence[int]) -> list[tuple[int, int]]:
    """Removable corners of a partition, as (row, column) cells."""
    out = []
    for x in range(1, len(shape) + 1):
        if x == len(shape) or shape[x] < shape[x - 1]:
            out.append((x, shape[x - 1]))
    return out


class SkewTableau:
    """A filling of the skew shape outer/inner: the inner partition and a
    dict from the (row, column) cells outside it to their entries.  The
    checks are its own: each row is contiguous from the inner shape on,
    the row lengths weakly decrease, and rows and columns weakly increase."""

    __slots__ = ("inner", "cells")

    def __init__(self, inner: Sequence[int], cells: dict[tuple[int, int], int]):
        inner = tuple(inner)
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        if not is_partition(inner):
            raise ValueError(f"inner shape {inner} is not a partition")
        self.inner, self.cells = inner, dict(cells)
        for (x, y), e in sorted(self.cells.items()):
            if type(e) is not int or e < 1:
                raise ValueError(f"entry {e!r} is not a positive integer")
            if x < 1 or y <= self._base(x):
                raise ValueError(f"cell ({x}, {y}) is not outside {inner}")
            left, above = self.cells.get((x, y - 1)), self.cells.get((x - 1, y))
            if left is None and y - 1 > self._base(x):
                raise ValueError(f"row {x} is not contiguous")
            if left is not None and left > e:
                raise ValueError(f"row {x} is not weakly increasing")
            if above is not None and above > e:
                raise ValueError(f"column {y} decreases between rows {x - 1} and {x}")
        outer = self.outer
        if any(outer[k] < outer[k + 1] for k in range(len(outer) - 1)):
            raise ValueError(f"row lengths {outer} are not weakly decreasing")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], inner: Sequence[int]) -> "SkewTableau":
        """The filling whose row x lists the entries right of inner[x]."""
        if len(inner) > len(rows):
            raise ValueError("inner shape has more rows than the tableau")
        base = tuple(inner) + (0,) * (len(rows) - len(inner))
        return cls(inner, {
            (x, base[x - 1] + k): e
            for x, row in enumerate(rows, start=1)
            for k, e in enumerate(row, start=1)
        })

    def _base(self, x: int) -> int:
        return self.inner[x - 1] if x <= len(self.inner) else 0

    @property
    def outer(self) -> tuple[int, ...]:
        nrows = max([len(self.inner)] + [x for x, _ in self.cells])
        return tuple(
            self._base(x) + sum(1 for xx, _ in self.cells if xx == x)
            for x in range(1, nrows + 1)
        )

    def is_column_strict(self) -> bool:
        return all(
            self.cells[(x - 1, y)] < e
            for (x, y), e in self.cells.items()
            if (x - 1, y) in self.cells
        )

    def reading_word(self) -> tuple[int, ...]:
        """Rows read bottom to top, each left to right."""
        return tuple(self.cells[c] for c in sorted(self.cells, key=lambda c: (-c[0], c[1])))

    def to_tableau(self) -> Tableau:
        """The same filling as a package ``Tableau``, once the inner shape is gone."""
        if self.inner:
            raise ValueError(f"a skew tableau with inner shape {self.inner}")
        return Tableau(
            [[self.cells[(x, y)] for y in range(1, m + 1)]
             for x, m in enumerate(self.outer, start=1)]
        )


def jdt_slide(tab: SkewTableau, corner: tuple[int, int]) -> SkewTableau:
    """One jeu de taquin slide into the given removable corner of the inner
    shape.  The hole repeatedly swallows the smaller of its right and lower
    neighbours (the lower one on ties) until it reaches an outer corner."""
    if not tab.inner:
        raise ValueError("slide requires a skew tableau")
    if not tab.is_column_strict():
        raise ValueError("slide requires a column-strict tableau")
    if corner not in inner_corners(tab.inner):
        raise ValueError(f"{corner} is not a removable corner of {tab.inner}")
    cells = dict(tab.cells)
    hole = corner
    while True:
        x, y = hole
        nbrs = [c for c in ((x + 1, y), (x, y + 1)) if c in cells]
        if not nbrs:
            break
        nxt = min(nbrs, key=lambda c: (cells[c], -c[0]))
        cells[hole] = cells.pop(nxt)
        hole = nxt
    cx, _cy = corner
    new_inner = list(tab.inner)
    new_inner[cx - 1] -= 1
    return SkewTableau(new_inner, cells)


def rectify(tab: SkewTableau, choose=None) -> Tableau:
    """Slide until the inner shape is gone, and return the straight result
    as a package ``Tableau``.  The default corner choice is the bottommost
    removable corner; pass ``choose`` (corners -> corner) to force a
    different slide order.  The result does not depend on the order."""
    while tab.inner:
        corners = inner_corners(tab.inner)
        corner = max(corners) if choose is None else choose(corners)
        tab = jdt_slide(tab, corner)
    return tab.to_tableau()


def permutation_tableau(w: Perm) -> SkewTableau:
    """The staircase-skew tableau whose antidiagonal cells carry w_1, ..., w_n
    from the bottom-left cell to the top-right cell."""
    w = check_permutation(w)
    n = len(w)
    return SkewTableau(staircase(n), {(x, n + 1 - x): w[n - x] for x in range(1, n + 1)})


def standard_tableaux(shape: Sequence[int], inner: Sequence[int] = ()) -> Iterator:
    """All standard fillings of the shape as package tableaux or, given an
    inner shape, of the skew shape shape/inner as ``SkewTableau``."""
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

    def fill(t: int) -> Iterator:
        if t > m:
            tab = SkewTableau(inner, filled)
            yield tab if inner else tab.to_tableau()
            return
        for cell in cells:
            if cell not in filled and placeable(cell):
                filled[cell] = t
                yield from fill(t + 1)
                del filled[cell]

    return fill(1)


def column_strict_fillings(
    shape: Sequence[int], max_entry: int, inner: Sequence[int] = ()
) -> list[SkewTableau]:
    """Every column-strict filling of shape/inner with entries at most
    ``max_entry``, by trying every filling of its cells, in lexicographic
    order of the entries read row by row."""
    pad = tuple(inner) + (0,) * (len(shape) - len(inner))
    rows = [range(k + 1, m + 1) for m, k in zip(shape, pad)]
    cells = [(x, y) for x, ys in enumerate(rows, start=1) for y in ys]
    out = []
    for entries in itertools.product(range(1, max_entry + 1), repeat=len(cells)):
        try:
            t = SkewTableau(inner, dict(zip(cells, entries)))
        except ValueError:
            continue
        if t.is_column_strict():
            out.append(t)
    return out


# -- evacuation by rectification ----------------------------------------------

def evacuation_by_rectify(tab):
    """Delete the smallest entry, rectify the punctured skew tableau, and
    record the cell that left the outer shape with the complement label."""
    n = tab.size
    out = {}
    cur = tab
    for step in range(1, n + 1):
        punctured = SkewTableau.from_rows([cur.rows[0][1:], *cur.rows[1:]], inner=(1,))
        slid = rectify(punctured)
        old, new = cur.outer, slid.outer + (0,)
        x = next(i for i in range(len(old)) if old[i] != new[i])
        out[(x + 1, old[x])] = n + 1 - step
        cur = slid
    return Tableau(
        [[out[(x, y)] for y in range(1, length + 1)]
         for x, length in enumerate(tab.outer, start=1)]
    )


# -- Knuth moves K_ij ---------------------------------------------------------

def _check_adjacent(i: int, j: int, n: int) -> None:
    if abs(i - j) != 1:
        raise ValueError(f"indices must be adjacent, got {i}, {j}")
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
        raise ValueError(f"indices {i}, {j} out of range for degree {n}")


def in_knuth_domain(w: Perm, i: int, j: int) -> bool:
    """True if w s_i < w and w s_j > w (the domain D_ij of the move)."""
    _check_adjacent(i, j, len(w))
    des = right_descents(w)
    return i in des and j not in des


def knuth_move(w: Perm, i: int, j: int) -> Perm:
    """The move K_ij, a bijection from D_ij onto D_ji.

    With y0 the minimal coset representative of w<s_i, s_j>: w == y0 s_i maps
    to y0 s_i s_j, and w == y0 s_j s_i maps to y0 s_j.
    """
    if not in_knuth_domain(w, i, j):
        raise ValueError(f"{w} is not in D_{i}{j}")
    y0 = min_coset_rep(w, i, j)
    y0si = multiply_simple(y0, i)
    if w == y0si:
        return multiply_simple(y0si, j)
    y0sj = multiply_simple(y0, j)
    if w == multiply_simple(y0sj, i):
        return y0sj
    raise AssertionError(f"{w} not of the form y0 s_i or y0 s_j s_i")


# -- the Hecke algebra: T-basis products, C'-expansions, the q = 1 action -----

def _left_gen(x, i):
    """T_{s_i} x by the left multiplication rule, with lengths counted as
    inversions; the library multiplies by generators on the right only."""
    q = LaurentPoly({2: 1})
    out = HeckeElement.zero(x.n)
    for w, c in x.coords.items():
        sw = multiply_simple(w, i, "left")
        if length(sw) > length(w):
            terms = {sw: c}
        else:
            terms = {sw: c * q, w: c * (q - LaurentPoly.one())}
        out = out + HeckeElement(x.n, terms)
    return out


def t_multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in the T-basis; expands the left factor into generators."""
    if a.n != b.n:
        raise ValueError("degree mismatch")
    out = HeckeElement.zero(a.n)
    for w, c in sorted(a.coords.items()):
        cur = b
        for i in reversed(reduced_word(w)):
            cur = _left_gen(cur, i)
        out = out + cur.scale(c)
    return out


def c_prime_coordinates(
    x: HeckeElement, table: KLTable | None = None
) -> dict[Perm, LaurentPoly]:
    """Expand an element in the C'-basis by peeling top terms."""
    if table is None:
        table = default_table(x.n)
    out: dict[Perm, LaurentPoly] = {}
    rem = x
    for _ in range(100_000):
        if rem.is_zero():
            return out
        y = max(rem.coords, key=lambda p: (length(p), p))
        a = rem.coeff(y).shifted(length(y))
        out[y] = a
        rem = rem - c_prime(y, table).scale(a)
    raise AssertionError("C'-expansion did not terminate")


def c_prime_product_expansion(
    i: int, w: Perm, table: KLTable | None = None
) -> dict[Perm, LaurentPoly]:
    """Coordinates of C'_{s_i} C'_w in the C'-basis.

    Equals C'_{s_i w} + sum of mu(z, w) C'_z over z < w with s_i z < z when
    s_i w > w, and (v + v^-1) C'_w otherwise.
    """
    w = check_permutation(w)
    n = len(w)
    if table is None:
        table = default_table(n)
    s = multiply_simple(identity(n), i)
    prod = t_multiply(c_prime(s, table), c_prime(w, table))
    return c_prime_coordinates(prod, table)


def kl_action_q1(i: int, w: Perm, table: KLTable | None = None) -> dict[Perm, int]:
    """Coordinates of s_i . a(w) in the a-basis (the q = 1 canonical basis):
    -a(w) when s_i w < w, else a(w) + a(s_i w) + sum of mu(z, w) a(z) over
    z < w with s_i z < z."""
    w = check_permutation(w)
    n = len(w)
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range for degree {n}")
    if table is None:
        table = default_table(n)
    if i in left_descents(w):
        return {w: -1}
    out = {w: 1, multiply_simple(w, i, "left"): 1}
    for z, m in mu_list(table, w):
        if i in left_descents(z):
            out[z] = m
    return out


# -- cells on permutation tuples ----------------------------------------------

def left_cell_graph_by_tuples(n, table):
    """The cell graph keyed by tuples, with left descents computed per tuple
    and mu read through ``mu_list``."""
    perms = all_perms(n)
    desc = {w: left_descents(w) for w in perms}
    adj = {w: set() for w in perms}
    for w in perms:
        for z, _m in mu_list(table, w):
            if desc[z] - desc[w]:
                adj[z].add(w)
            if desc[w] - desc[z]:
                adj[w].add(z)
    return {w: tuple(sorted(adj[w])) for w in perms}


def scc_by_dicts(adj):
    """Iterative Tarjan on a dict graph, its state in dicts and sets."""
    index_of, low, on_stack = {}, {}, set()
    stack, comps = [], []
    counter = 0
    for root in sorted(adj):
        if root in index_of:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index_of:
                    index_of[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(adj[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                comp = set()
                while True:
                    z = stack.pop()
                    on_stack.discard(z)
                    comp.add(z)
                    if z == node:
                        break
                comps.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comps


def cells_by_tuples(n, side, table):
    """``(cells, leq)`` of the cell partition from the tuple graph, with the
    preorder by a breadth-first search from every cell and right cells as
    the inverses of the left ones."""
    adj = left_cell_graph_by_tuples(n, table)
    comps = tuple(sorted((tuple(sorted(c)) for c in scc_by_dicts(adj)), key=lambda c: c[0]))
    index = {w: k for k, cell in enumerate(comps) for w in cell}
    cond = {k: set() for k in range(len(comps))}
    for w, nbrs in adj.items():
        for x in nbrs:
            if index[w] != index[x]:
                cond[index[w]].add(index[x])
    leq = set()
    for start in range(len(comps)):
        seen = {start}
        queue = deque((start,))
        while queue:
            for nxt in cond[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        leq.update((start, other) for other in seen)
    if side == "left":
        return comps, frozenset(leq)
    mapped = [tuple(sorted(inverse(w) for w in cell)) for cell in comps]
    order = sorted(range(len(mapped)), key=lambda k: mapped[k][0])
    rank = {old: new for new, old in enumerate(order)}
    return tuple(mapped[old] for old in order), frozenset((rank[i], rank[j]) for i, j in leq)


# -- cells by reachability ----------------------------------------------------

def left_closure(w, table=None):
    """{y : y <=_L w}: everything that reaches w in the cell graph."""
    w = check_permutation(w)
    adj = left_cell_graph(len(w), table)
    rev = {x: [] for x in adj}
    for x, nbrs in adj.items():
        for y in nbrs:
            rev[y].append(x)
    seen = {w}
    queue = deque((w,))
    while queue:
        cur = queue.popleft()
        for nxt in rev[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


# -- the permutation suites, one insertion per permutation --------------------

def knuth_by_insertion(n):
    """The knuth suite with the P-symbol of each permutation inserted on its
    own and its fibers keyed by ``Tableau``."""
    report = Report("knuth", n, cases=0)
    fibers = {}
    perms = all_perms(n)
    report.cases = len(perms)
    for w in perms:
        fibers.setdefault(p_symbol(w), set()).add(w)
    report.info["classes"] = str(len(fibers))
    done = set()
    for w in perms:
        if w in done:
            continue
        cls = knuth_class(w)
        done.update(cls)
        if cls != frozenset(fibers[p_symbol(w)]):
            report.violations.append(
                f"w={_fmt(w)} knuth class {sorted(map(_fmt, cls))} != "
                f"P-fiber {sorted(map(_fmt, fibers[p_symbol(w)]))}"
            )
    return report


def evacuation_by_insertion(n):
    """The evacuation suite with Q(w) and Q(w w0) inserted and Q(w)
    evacuated twice for every permutation, w w0 by composition."""
    report = Report("evacuation", n, cases=0)
    w0 = longest_element(n)
    perms = all_perms(n)
    report.cases = len(perms)
    for w in perms:
        q = q_symbol(w)
        ev = evacuation(q)
        if evacuation(ev) != q:
            report.violations.append(f"w={_fmt(w)}: evacuation is not involutive")
        if ev.transpose() != q_symbol(compose_as_maps(w, w0)):
            report.violations.append(
                f"w={_fmt(w)}: transpose(evac(Q(w))) != Q(w.w0), "
                f"Q(w)={q.to_json()}"
            )
    return report


# -- the cell suites by scanning every pair -----------------------------------

def theorem_a_by_scan(n, table=None):
    """The theorem-a suite listing every pair y < w on which the cell
    partition and the Q-symbol fibers disagree."""
    report = Report("theorem-a", n, cases=0)
    part = cells(n, "left", table)
    perms = all_perms(n)
    report.cases = len(perms)
    qs = {w: q_symbol(w) for w in perms}
    report.info["cells"] = str(len(part.cells))
    report.info["q-symbols"] = str(len(set(qs.values())))
    for y in perms:
        for w in perms:
            if y < w:
                by_cell = part.same_cell(y, w)
                by_q = qs[y] == qs[w]
                if by_cell != by_q:
                    report.violations.append(
                        f"y={_fmt(y)} w={_fmt(w)} same-cell={by_cell} same-Q={by_q}"
                    )
    return report


def descents_by_scan(n, table=None):
    """The descents suite over all n!^2 pairs of elements."""
    report = Report("descents", n, cases=0)
    part = cells(n, "left", table)
    perms = all_perms(n)
    for y in perms:
        ry = right_descents(y)
        for w in perms:
            if not leq_elements(part, y, w):
                continue
            report.cases += 1
            rw = right_descents(w)
            if not ry >= rw:
                report.violations.append(
                    f"y={_fmt(y)} w={_fmt(w)} with y <=_L w but R(y)={sorted(ry)} "
                    f"does not contain R(w)={sorted(rw)}"
                )
            if part.same_cell(y, w) and ry != rw:
                report.violations.append(
                    f"y={_fmt(y)} w={_fmt(w)} in one left cell but "
                    f"R(y)={sorted(ry)} != R(w)={sorted(rw)}"
                )
    return report


def knuth_mu_by_scan(n, table=None):
    """The knuth-mu suite over every pair of each domain D_ij, with mu read
    pair by pair through ``mu_sym``."""
    report = Report("knuth-mu", n, cases=0)
    if table is None:
        table = KLTable(n)
    left = cells(n, "left", table)
    right = cells(n, "right", table)
    perms = all_perms(n)
    for i in range(1, n - 1):
        for i2, j2 in ((i, i + 1), (i + 1, i)):
            domain = [w for w in perms if in_knuth_domain(w, i2, j2)]
            images = {w: knuth_move(w, i2, j2) for w in domain}
            for w in domain:
                report.cases += 1
                if not right.same_cell(w, images[w]):
                    report.violations.append(
                        f"w={_fmt(w)} K_{i2}{j2}(w)={_fmt(images[w])} "
                        f"not in one right cell"
                    )
            for y in domain:
                for w in domain:
                    if y >= w:
                        continue
                    m = table.mu_sym(y, w)
                    if m:
                        report.cases += 1
                        if not table.mu_sym(images[y], images[w]):
                            report.violations.append(
                                f"y={_fmt(y)} w={_fmt(w)} mu={m} but "
                                f"mu(K(y)|K(w))=0 for (i,j)=({i2},{j2}), "
                                f"K(y)={_fmt(images[y])} K(w)={_fmt(images[w])}"
                            )
                    if left.same_cell(y, w):
                        report.cases += 1
                        if not left.same_cell(images[y], images[w]):
                            report.violations.append(
                                f"y={_fmt(y)} w={_fmt(w)} share a left cell but "
                                f"K_{i2}{j2} images do not"
                            )
    return report


# -- a sample of the ranks of S_n ----------------------------------------------

def sampled_ranks(n, stride):
    """Every stride-th rank of S_n, with a prime stride that meets every
    place of the blocks of (n - i + 1)! ranks shorter than it, plus the
    first and last rank of each longer block."""
    size = factorial(n)
    ranks = set(range(0, size, stride))
    for i in range(1, n):
        block = factorial(n - i + 1)
        if block >= stride:
            for start in range(0, size, block):
                ranks |= {start, start + block - 1}
    return sorted(ranks)


# -- KL columns by the dict recursion -----------------------------------------

def kl_by_dict_recursion(table, side="left"):
    """Every column and mu list of ``table``'s degree, by the descent
    recursion on ``side`` with each column a dict rank -> polynomial and
    each Bruhat interval a set of ranks.  Only the rank arithmetic of the
    table's Ranks (steps, descent masks and lengths) is shared.

    Returns ``(columns, mu_lists, lookup)``: column w holds P_{y,w} for
    every y <= w whose descent set on ``side`` contains that of w, mu list
    w is sorted by rank, and ``lookup(y, w)`` is P_{y,w} for any pair of
    ranks.
    """
    ranks = table.ranks
    steps, masks = (ranks.steps, ranks.masks) if side == "left" else (ranks.rsteps, ranks.rmasks)
    lengths = ranks.lengths
    columns = {0: {0: ONE}}
    supports = {0: {0}}
    mu_lists = {}

    def raise_to(y, wmask):
        while rest := wmask & ~masks[y]:
            y = steps[(rest & -rest).bit_length() - 1][y]
        return y

    def lookup(y, w):
        if y == w:
            return ONE
        if lengths[y] >= lengths[w]:
            return ZERO
        return columns[w].get(raise_to(y, masks[w]), ZERO)

    def mu_list(w):
        pairs = []
        for y, p in columns[w].items():
            d = lengths[w] - lengths[y]
            if d % 2 and p.coeff((d - 1) // 2):
                pairs.append((y, p.coeff((d - 1) // 2)))
        pairs += [(step[w], 1) for i, step in enumerate(steps) if masks[w] >> i & 1]
        return tuple(sorted(pairs))

    mu_lists[0] = mu_list(0)
    for w in sorted(range(1, len(lengths)), key=lengths.__getitem__):
        ibit = masks[w] & -masks[w]
        step = steps[ibit.bit_length() - 1]
        v = step[w]
        supports[w] = supports[v] | {step[z] for z in supports[v]}
        lw = lengths[w]
        muv = [(z, m) for z, m in mu_lists[v] if masks[z] & ibit]
        col = columns[w] = {}
        for y in supports[w]:
            if masks[w] & ~masks[y]:
                continue
            p = lookup(step[y], v) + lookup(y, v).shift(1)
            for z, m in muv:
                p = p - lookup(y, z).shift((lw - lengths[z]) // 2) * m
            col[y] = p
        mu_lists[w] = mu_list(w)
    return columns, mu_lists, lookup
