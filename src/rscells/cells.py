"""
Left and right cells of S_n from the mu-coefficient graph.

The graph has an edge x -> x' exactly when mu is nonzero between x and x'
(on whichever side is shorter) and the left descent set of x is not contained
in that of x'.  A path from y to w realizes y <=_L w, so the strongly
connected components are the left cells and the condensation order is the
cell preorder.  Right cells are the inverse images of left cells.

The graph is built on the ranks of a :class:`KLTable` in one walk over its
mu lists in (length, rank) order, the order of ``warm()``, so the table
drops each length layer of Bruhat supports as it goes.
"""

from __future__ import annotations

from .kl import KLTable
from .permutations import Perm, Ranks


def _rank_graph(n: int, table: KLTable | None) -> tuple[KLTable, list[list[int]]]:
    """``table``, or a fresh KLTable(n) when it is None, and the graph as
    rank -> the ranks it has an edge to."""
    if table is None:
        table = KLTable(n)
    elif table.n != n:
        raise ValueError(f"cells of S_{n} need a table of degree {n}, got {table.n}")
    masks = table.ranks.masks
    adj: list[list[int]] = [[] for _ in masks]
    for w in table._in_length_order():
        mw = masks[w]
        zs, _, lo, hi = table._mu_list(w)
        for i in range(lo, hi):
            z = zs[i]
            mz = masks[z]
            if mz & ~mw:
                adj[z].append(w)
            if mw & ~mz:
                adj[w].append(z)
    return table, adj


def left_cell_graph(n: int, table: KLTable | None = None) -> dict[Perm, tuple[Perm, ...]]:
    """Adjacency of the chain-step graph: edge x -> x' iff L(x) is not a
    subset of L(x') and mu does not vanish between x and x'."""
    table, adj = _rank_graph(n, table)
    perms = table.ranks.perms
    return {perms[w]: tuple(perms[x] for x in sorted(nbrs)) for w, nbrs in enumerate(adj)}


def strongly_connected_components(adj: list) -> list[list[int]]:
    """Iterative Tarjan on nodes 0..len(adj) - 1, ``adj[x]`` the nodes x
    has an edge to.  Each component is an ascending list, and it comes
    after every component it reaches."""
    order = [0] * len(adj)  # visit number from 1; 0 while unvisited
    low = [0] * len(adj)  # done once the node's component is out
    done = len(adj) + 1
    stack: list[int] = []
    comps: list[list[int]] = []
    visited = 0
    for root in range(len(adj)):
        if order[root]:
            continue
        visited += 1
        order[root] = low[root] = visited
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            node, it = work[-1]
            for child in it:
                if not order[child]:
                    visited += 1
                    order[child] = low[child] = visited
                    stack.append(child)
                    work.append((child, iter(adj[child])))
                    break
                low[node] = min(low[node], low[child])
            else:
                work.pop()
                if low[node] == order[node]:
                    comp = []
                    while not comp or comp[-1] != node:
                        comp.append(stack.pop())
                        low[comp[-1]] = done
                    comps.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return comps


class CellPartition:
    """Cells of S_n with the partial order induced on them.

    ``leq`` holds index pairs (i, j) meaning every element of cells[i] is
    below every element of cells[j] in the one-sided preorder; it is
    reflexive and transitive.  ``of_rank[r]`` is the index of the cell of
    ``perms[r]``, the element of rank r in the table's Ranks.  Two
    partitions are equal when their side, cells and order are.
    """

    def __init__(
        self,
        side: str,
        cells: tuple[tuple[Perm, ...], ...],
        leq: frozenset[tuple[int, int]],
        of_rank: list[int],
        _ranks: Ranks,
    ) -> None:
        self.side = side
        self.cells = cells
        self.leq = leq
        self.of_rank = of_rank
        self._ranks = _ranks

    def __eq__(self, other):
        if not isinstance(other, CellPartition):
            return NotImplemented
        return (self.side, self.cells, self.leq) == (other.side, other.cells, other.leq)

    def __repr__(self) -> str:
        return f"CellPartition(side={self.side!r}, cells={self.cells!r}, leq={self.leq!r})"

    def cell_index(self, w: Perm) -> int:
        return self.of_rank[self._ranks.index[tuple(w)]]

    def same_cell(self, y: Perm, w: Perm) -> bool:
        return self.cell_index(y) == self.cell_index(w)


def cells(n: int, side: str = "left", table: KLTable | None = None) -> CellPartition:
    """The cell partition with its condensation order, cells numbered by
    their least element.

    Right cells are computed from the left ones through inversion, which
    matches the definition via right descent chains.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    table, adj = _rank_graph(n, table)
    comps = strongly_connected_components(adj)
    comp_of = [0] * len(adj)
    for k, comp in enumerate(comps):
        for r in comp:
            comp_of[r] = k
    # bit j of reach[k]: component k reaches component j, which comes earlier
    reach: list[int] = []
    for k, comp in enumerate(comps):
        bits = 1 << k
        for x in {comp_of[x] for r in comp for x in adj[r]} - {k}:
            bits |= reach[x]
        reach.append(bits)
    if side == "right":
        comp_of = [comp_of[r] for r in table.ranks.inverse]
    # component -> cell index, in order of least rank
    number: dict[int, int] = {}
    of_rank = [number.setdefault(k, len(number)) for k in comp_of]
    members: list[list[Perm]] = [[] for _ in comps]
    for w, k in zip(table.ranks.perms, of_rank):
        members[k].append(w)
    leq = frozenset(
        (number[k], number[j]) for k, bits in enumerate(reach) for j in range(k + 1) if bits >> j & 1
    )
    return CellPartition(side, tuple(map(tuple, members)), leq, of_rank, table.ranks)
