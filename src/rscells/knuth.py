"""Elementary Knuth relations on permutations and the Knuth classes they
generate.  The descent-pattern moves K_ij, which the ``knuth-mu`` suite
reads off a KL table's right steps, are the test oracle in
``tests/oracles.py``."""

from __future__ import annotations

from collections import deque

from .permutations import Perm


def knuth_neighbors(w: Perm) -> frozenset[Perm]:
    """Permutations one elementary Knuth relation away from ``w``.

    In a window of three consecutive letters (x, y, z): swap the last two
    when x lies strictly between them, swap the first two when z does.
    """
    out = set()
    for i in range(len(w) - 2):
        x, y, z = w[i : i + 3]
        if min(y, z) < x < max(y, z):
            out.add(w[: i + 1] + (z, y) + w[i + 3 :])
        if min(x, y) < z < max(x, y):
            out.add(w[:i] + (y, x) + w[i + 2 :])
    return frozenset(out)


def knuth_class(w: Perm) -> frozenset[Perm]:
    """Transitive closure of :func:`knuth_neighbors` containing ``w``."""
    seen = {w}
    queue = deque((w,))
    while queue:
        cur = queue.popleft()
        for nxt in knuth_neighbors(cur):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)
