"""
Left and right cells of S_n from the mu-coefficient graph.

The graph has an edge x -> x' exactly when mu is nonzero between x and x'
(on whichever side is shorter) and the left descent set of x is not contained
in that of x'.  A path from y to w realizes y <=_L w, so the strongly
connected components are the left cells and the condensation order is the
cell preorder.  Right cells are the inverse images of left cells.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .kl import KLTable, default_table
from .permutations import Perm, all_permutations, inverse, left_descents


def left_cell_graph(n: int, table: KLTable | None = None) -> dict[Perm, tuple[Perm, ...]]:
    """Adjacency of the chain-step graph: edge x -> x' iff L(x) is not a
    subset of L(x') and mu does not vanish between x and x'."""
    if table is None:
        table = default_table(n)
    perms = list(all_permutations(n))
    desc = {w: left_descents(w) for w in perms}
    adj: dict[Perm, set[Perm]] = {w: set() for w in perms}
    for w in perms:
        for z, _m in table.mu_list(w):
            if desc[z] - desc[w]:
                adj[z].add(w)
            if desc[w] - desc[z]:
                adj[w].add(z)
    return {w: tuple(sorted(adj[w])) for w in perms}


def strongly_connected_components(adj: dict) -> list[frozenset]:
    """Iterative Tarjan; components in a deterministic order."""
    index_of: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    comps: list[frozenset] = []
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


@dataclass
class CellPartition:
    """Cells of S_n with the partial order induced on them.

    ``leq`` holds index pairs (i, j) meaning every element of cells[i] is
    below every element of cells[j] in the one-sided preorder; it is
    reflexive and transitive.
    """

    side: str
    cells: tuple[tuple[Perm, ...], ...]
    leq: frozenset[tuple[int, int]]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {w: k for k, cell in enumerate(self.cells) for w in cell}

    def cell_index(self, w: Perm) -> int:
        return self._index[tuple(w)]

    def same_cell(self, y: Perm, w: Perm) -> bool:
        return self.cell_index(y) == self.cell_index(w)

    def leq_elements(self, y: Perm, w: Perm) -> bool:
        """Whether y <= w in the preorder (left: y <=_L w)."""
        return (self.cell_index(y), self.cell_index(w)) in self.leq

    def as_sets(self) -> set[frozenset]:
        return {frozenset(cell) for cell in self.cells}


def _canonical(comps: list[frozenset]) -> tuple[tuple[Perm, ...], ...]:
    return tuple(sorted((tuple(sorted(c)) for c in comps), key=lambda c: c[0]))


def cells(n: int, side: str = "left", table: KLTable | None = None) -> CellPartition:
    """The cell partition with its condensation order.

    Right cells are computed from the left ones through inversion, which
    matches the definition via right descent chains.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    adj = left_cell_graph(n, table)
    comps = _canonical(strongly_connected_components(adj))
    index = {w: k for k, cell in enumerate(comps) for w in cell}
    cond: dict[int, set[int]] = {k: set() for k in range(len(comps))}
    for w, nbrs in adj.items():
        for x in nbrs:
            if index[w] != index[x]:
                cond[index[w]].add(index[x])
    leq = set()
    for start in range(len(comps)):
        seen = {start}
        queue = deque((start,))
        while queue:
            cur = queue.popleft()
            for nxt in cond[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        leq.update((start, other) for other in seen)
    if side == "left":
        return CellPartition("left", comps, frozenset(leq))
    mapped = [tuple(sorted(inverse(w) for w in cell)) for cell in comps]
    order = sorted(range(len(mapped)), key=lambda k: mapped[k][0])
    rank = {old: new for new, old in enumerate(order)}
    rcells = tuple(mapped[old] for old in order)
    rleq = frozenset((rank[i], rank[j]) for (i, j) in leq)
    return CellPartition("right", rcells, rleq)

