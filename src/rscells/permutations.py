"""
Permutations of {1, ..., n} in one-line notation.

A permutation is the tuple ``(w_1, ..., w_n)`` of its values, so ``w[i - 1]``
is the image of ``i``.  Composition applies the right factor first:
``compose(u, v)[i - 1] == u[v[i - 1] - 1]``.  Under this convention,
multiplying by the adjacent transposition ``s_i`` on the right swaps the
entries at positions ``i`` and ``i + 1``, and multiplying on the left swaps
the letters ``i`` and ``i + 1`` wherever they occur.

>>> compose((2, 1, 3), (1, 3, 2))
(2, 3, 1)
>>> length((3, 1, 5, 2, 4))
4
>>> sorted(right_descents((3, 1, 5, 2, 4)))
[1, 3]
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator, Sequence

Perm = tuple[int, ...]


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


if __name__ == "__main__":
    import doctest

    doctest.testmod()
