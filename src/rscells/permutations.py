"""
Permutations of {1, ..., n} in one-line notation.

A permutation is the tuple ``(w_1, ..., w_n)`` of its values, so ``w[i - 1]``
is the image of ``i``.  Composition applies the right factor first:
``compose(u, v)[i - 1] == u[v[i - 1] - 1]``.  Under this convention,
multiplying by the adjacent transposition ``s_i`` on the right swaps the
entries at positions ``i`` and ``i + 1``, and multiplying on the left swaps
the letters ``i`` and ``i + 1`` wherever they occur.  :class:`Ranks`
numbers S_n in lexicographic order and holds arrays of this arithmetic over
the ranks, which the KL table, the cells and the suites share.

>>> compose((2, 1, 3), (1, 3, 2))
(2, 3, 1)
>>> length((3, 1, 5, 2, 4))
4
>>> sorted(right_descents((3, 1, 5, 2, 4)))
[1, 3]
"""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Callable, Iterator, Sequence
from math import factorial

Perm = tuple[int, ...]

# Ranks(n) holds up to n! * n ranks, and digit notation stops at 9
MAX_DEGREE = 9


def is_permutation(word: Sequence[int]) -> bool:
    """True if ``word`` lists each of 1..n exactly once.

    >>> is_permutation((3, 1, 2)), is_permutation((1, 3)), is_permutation(())
    (True, False, True)
    """
    n = len(word)
    seen = [False] * (n + 1)
    for a in word:
        # bool is an int subclass, so JSON true would pass for 1
        if type(a) is not int or a < 1 or a > n or seen[a]:
            return False
        seen[a] = True
    return True


def check_permutation(word: Sequence[int]) -> Perm:
    """Return ``word`` as a tuple, raising ValueError if it is not a permutation."""
    w = tuple(word)
    if not is_permutation(w):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return w


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation, the unique longest element.

    >>> longest_element(4)
    (4, 3, 2, 1)
    """
    return tuple(range(n, 0, -1))


def compose(u: Perm, v: Perm) -> Perm:
    """Apply ``v`` first, then ``u``.

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(u) != len(v):
        raise ValueError(f"degree mismatch: {len(u)} vs {len(v)}")
    return tuple(u[j - 1] for j in v)


def inverse(w: Perm) -> Perm:
    """
    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    out = [0] * len(w)
    for i, a in enumerate(w, start=1):
        out[a - 1] = i
    return tuple(out)


def length(w: Perm) -> int:
    """Number of inversions; equals the minimal word length in the s_i.

    >>> length((4, 3, 2, 1))
    6
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def right_descents(w: Perm) -> frozenset[int]:
    """Indices i with w s_i < w, i.e. positions where the word descends.

    >>> sorted(right_descents((3, 1, 5, 2, 4)))
    [1, 3]
    """
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def left_descents(w: Perm) -> frozenset[int]:
    """Indices i with s_i w < w; equals the right descents of the inverse."""
    return right_descents(inverse(w))


def multiply_simple(w: Perm, i: int, side: str = "right") -> Perm:
    """Multiply by s_i on the given side.

    Right multiplication swaps positions i, i+1; left multiplication swaps
    the letters i, i+1.

    >>> multiply_simple((1, 2, 3), 1)
    (2, 1, 3)
    >>> multiply_simple((2, 1, 3), 2, side="left")
    (3, 1, 2)
    """
    n = len(w)
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range for degree {n}")
    if side == "right":
        return w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
    if side == "left":
        swap = {i: i + 1, i + 1: i}
        return tuple(swap.get(a, a) for a in w)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def all_permutations(n: int) -> Iterator[Perm]:
    """Yield all n! permutations in lexicographic one-line order.

    >>> list(all_permutations(2))
    [(1, 2), (2, 1)]
    """
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    return iter(itertools.permutations(range(1, n + 1)))


def parse_permutation(text: str) -> Perm:
    """Parse the digit-string form ("31524", n <= 9) or a JSON integer array.

    >>> parse_permutation("31524")
    (3, 1, 5, 2, 4)
    >>> parse_permutation("[10, 1, 2, 3, 4, 5, 6, 7, 8, 9]")[0]
    10
    """
    text = text.strip()
    if text.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed permutation array: {text!r}") from exc
        if not isinstance(data, list):
            raise ValueError(f"malformed permutation array: {text!r}")
        return check_permutation(data)
    if not text.isdigit():
        raise ValueError(f"malformed permutation: {text!r}")
    return check_permutation(tuple(int(ch) for ch in text))


def format_permutation(w: Perm) -> str:
    """Digit string for n <= 9, JSON array otherwise.

    >>> format_permutation((3, 1, 5, 2, 4))
    '31524'
    """
    if len(w) <= 9:
        return "".join(str(a) for a in w)
    return json.dumps(list(w), separators=(",", ":"))


def _right_runs(n: int, i: int) -> tuple[int, int, list[tuple[int, int]]]:
    """How w s_i moves the ranks of S_n: (block, run, [(start, offset)]),
    each run of ``run`` ranks from ``start`` moving by ``offset``, in the
    first block of ``block`` ranks and in every later one alike.

    A rank's factorial-base digits are the Lehmer code c_1..c_n of its
    permutation, c_j of weight (n - j)!, and w s_i changes only c_i and
    c_{i+1}: to (c_{i+1} + 1, c_i) when d = c_{i+1} - c_i >= 0, w s_i > w,
    and to (c_{i+1}, c_i - 1) when d < 0.  So each pair (c_i, c_{i+1}) is a
    run of (n - i - 1)! ranks, and its offset depends on d alone."""
    f1, f2 = factorial(n - i), factorial(n - i - 1)
    runs = []
    for ci in range(n - i + 1):
        for cj in range(n - i):
            d = cj - ci
            runs.append((ci * f1 + cj * f2, d * (f1 - f2) + (f1 if d >= 0 else -f2)))
    return (n - i + 1) * f1, f2, runs


def _right_steps(n: int, i: int, ints: list[int]) -> list[int]:
    """The rank of w s_i for each rank of w in S_n, as objects of ``ints``;
    a run takes one slice assignment per block or, where that makes fewer,
    one per place of the run across every block."""
    size = len(ints)
    block, run, runs = _right_runs(n, i)
    row = [0] * size
    for start, offset in runs:
        if run * block <= size:
            for k in range(start, start + run):
                row[k::block] = ints[k + offset : size : block]
        else:
            for b in range(start, size, block):
                row[b : b + run] = ints[b + offset : b + offset + run]
    return row


class Ranks:
    """S_n by rank: ``perms[r]`` is the permutation of rank r in the
    lexicographic list of S_n (the identity is rank 0), and the other arrays
    are indexed by rank.  Because ranks follow lexicographic order, sorting
    ranks sorts the permutations.  Permutation tuples enter only through
    ``rank``, which rejects anything that is not a permutation of degree n.

    Right multiplication by s_i moves runs of ranks, the same in every block
    of (n - i + 1)! ranks, by one offset per run (_right_runs), and w s_i < w
    exactly where the offset is negative; the left steps and descents are
    the right ones conjugated by inversion.

    Each array is built the first time it is read, so a caller that needs
    only ``perms`` never pays for the n! * n step arrays.  Degrees outside
    1..MAX_DEGREE raise ValueError before any enumeration.

    >>> ranks = Ranks(3)
    >>> ranks.perms[ranks.steps[0][ranks.rank((1, 3, 2))]]
    (2, 3, 1)
    """

    def __init__(self, n: int):
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"degree must lie in 1..{MAX_DEGREE}, got {n}")
        self.n = n

    @functools.cached_property
    def perms(self) -> list[Perm]:
        return list(all_permutations(self.n))

    @functools.cached_property
    def lengths(self) -> list[int]:
        # the lexicographic rank of w, written in the factorial base, has the
        # Lehmer code of w as its digits, and their sum is the length
        lengths = [0]
        for k in range(2, self.n + 1):
            lengths = [d + l for d in range(k) for l in lengths]
        return lengths

    @functools.cached_property
    def ints(self) -> list[int]:
        # the int objects every rank array and the index hold
        return list(range(factorial(self.n)))

    @functools.cached_property
    def index(self) -> dict[Perm, int]:
        return dict(zip(self.perms, self.ints))

    @functools.cached_property
    def inverse(self) -> list[int]:
        # inverse[r]: rank of perms[r]^-1
        index = self.index
        return [index[inverse(w)] for w in self.perms]

    @functools.cached_property
    def rsteps(self) -> list[list[int]]:
        # rsteps[i - 1][r]: rank of perms[r] * s_i
        return [_right_steps(self.n, i, self.ints) for i in range(1, self.n)]

    @functools.cached_property
    def steps(self) -> list[list[int]]:
        # steps[i - 1][r]: rank of s_i * perms[r], where s_i w = (w^-1 s_i)^-1
        inv = self.inverse
        return [[inv[step[r]] for r in inv] for step in self.rsteps]

    @functools.cached_property
    def rmasks(self) -> list[int]:
        # right descent set, bit i - 1 for s_i, which holds where w s_i has
        # the lower rank
        ints = self.ints
        rmasks = [0] * len(ints)
        for i, step in enumerate(self.rsteps):
            bit = 1 << i
            rmasks = [m | bit if s < r else m for m, s, r in zip(rmasks, step, ints)]
        return rmasks

    @functools.cached_property
    def masks(self) -> list[int]:
        # left descent set, the right one of the inverse
        rmasks = self.rmasks
        return [rmasks[r] for r in self.inverse]

    @functools.cached_property
    def lowest(self) -> list[int]:
        # the index of the lowest set bit of each descent mask
        return [(m & -m).bit_length() - 1 for m in range(1 << self.n - 1)]

    def rank(self, w) -> int:
        """The rank of ``w``; ValueError unless it is a permutation in S_n."""
        try:
            return self.index[tuple(w)]
        except (KeyError, TypeError):
            raise ValueError(f"not a permutation in S_{self.n}: {w!r}") from None

    @functools.cached_property
    def raise_to(self) -> Callable[[int, int], int]:
        """``raise_to(y, wmask)`` pushes y up on the left through the left
        descents ``wmask`` of a w; P_{y,w} is unchanged.  The function holds
        the arrays it reads: it runs once per KL entry, and on Python 3.11 a
        read of a cached attribute takes about 35 ns, a local read a few."""
        masks, steps, lowest = self.masks, self.steps, self.lowest

        def raise_to(y: int, wmask: int) -> int:
            while True:
                rest = wmask & ~masks[y]
                if not rest:
                    return y
                y = steps[lowest[rest]][y]

        return raise_to


@functools.lru_cache(maxsize=1)
def rank_arrays(n: int) -> Ranks:
    """The process-wide Ranks of degree n, shared until a call asks for
    another degree: only the last degree's is kept."""
    return Ranks(n)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
