"""
Combinatorial crystals on words over the alphabet {1, ..., r}.

A word is a tuple of letters, one tensor factor per position, leftmost factor
first.  The lowering operator f_i turns a letter i into i + 1 and the raising
operator e_i turns i + 1 into i.  Which letter they change is decided by the
signature rule: scanning left to right, each letter i cancels the nearest
uncancelled i + 1 before it; e_i changes the leftmost surviving i + 1 and
f_i the rightmost surviving i, and eps_i / phi_i count the survivors.  This
one cancellation scan is the implementation of all four.  The recursive
two-factor tensor rule

    e_i(b1 (x) b2) = b1 (x) e_i(b2)   if eps_i(b1) <= phi_i(b2), else e_i(b1) (x) b2
    f_i(b1 (x) b2) = b1 (x) f_i(b2)   if eps_i(b1) <  phi_i(b2), else f_i(b1) (x) b2

is the test oracle it is checked against (``tests/oracles.py``).
Annihilation is the value None, never an exception.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .tableaux import (
    Tableau,
    insert_word,
    reading_word,
    reading_word_to_tableau,
    semistandard_tableaux,
)

Word = tuple[int, ...]

# decompose() and crystal_edges() refuse alphabets/lengths whose word count
# exceeds this
MAX_WORDS = 500_000


class _WordCountError(ValueError):
    """r**n exceeds MAX_WORDS; the command line reports it as a bound (exit 3)."""


def _check_word_count(n: int, r: int) -> None:
    if r**n > MAX_WORDS:
        raise _WordCountError(
            f"crystal with {r}**{n} words is too large (bound {MAX_WORDS})"
        )


def _check_index(i: int) -> None:
    if i < 1:
        raise ValueError(f"operator index must be at least 1, got {i}")


def _cancel(i: int, word: Word) -> tuple[list[int], list[int]]:
    """0-based positions of the letters i+1 and i left uncancelled when each
    letter i cancels the most recent open i+1.  Every surviving i lies left
    of every surviving i+1."""
    _check_index(i)
    open_down: list[int] = []   # positions of uncancelled letters i+1
    unmatched_up: list[int] = []  # positions of uncancelled letters i
    for pos, a in enumerate(word):
        if a == i + 1:
            open_down.append(pos)
        elif a == i:
            if open_down:
                open_down.pop()
            else:
                unmatched_up.append(pos)
    return open_down, unmatched_up


def signature_rule(i: int, word: Word) -> tuple[Optional[int], Optional[int]]:
    """0-based positions that e_i and f_i change: e_i hits the leftmost
    surviving i+1, f_i the rightmost surviving i; None where nothing survives.

    >>> signature_rule(1, (2, 1, 1, 2))
    (3, 2)
    """
    down, up = _cancel(i, word)
    return (down[0] if down else None), (up[-1] if up else None)


def signature_counts(i: int, word: Word) -> tuple[int, int]:
    """(eps_i, phi_i): the numbers of surviving letters i+1 and i."""
    down, up = _cancel(i, word)
    return len(down), len(up)


@lru_cache(maxsize=None)
def f_op(i: int, word: Word) -> Optional[Word]:
    """Apply the lowering operator f_i; None when it annihilates."""
    pos = signature_rule(i, word)[1]
    return None if pos is None else word[:pos] + (i + 1,) + word[pos + 1 :]


@lru_cache(maxsize=None)
def e_op(i: int, word: Word) -> Optional[Word]:
    """Apply the raising operator e_i; None when it annihilates."""
    pos = signature_rule(i, word)[0]
    return None if pos is None else word[:pos] + (i,) + word[pos + 1 :]


@lru_cache(maxsize=None)
def phi(i: int, word: Word) -> int:
    """Largest k with f_i^k applicable: the surviving letters i."""
    return signature_counts(i, word)[1]


@lru_cache(maxsize=None)
def eps(i: int, word: Word) -> int:
    """Largest k with e_i^k applicable: the surviving letters i+1."""
    return signature_counts(i, word)[0]


def component(word: Word, r: int) -> frozenset[Word]:
    """Connected component: closure of the word under all e_i and f_i."""
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


def _check_word(word, r: int) -> Word:
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    if any(not isinstance(a, int) or not 1 <= a <= r for a in word):
        raise ValueError(f"letters must lie in 1..{r}: {word}")
    return word


@dataclass(frozen=True)
class CrystalComponent:
    label: Word                  # lexicographically least member
    words: frozenset[Word]
    q_symbol: Tableau
    shape: tuple[int, ...]


def decompose(n: int, r: int | None = None, check: bool = True) -> list[CrystalComponent]:
    """Partition all r**n words into components, labelled by the common
    recording tableau of their members (constant by the tensor-product
    decomposition theorem; ``check`` verifies it)."""
    if n < 1:
        raise ValueError(f"word length must be at least 1, got {n}")
    if r is None:
        r = n
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    _check_word_count(n, r)
    import itertools

    out = []
    seen: set[Word] = set()
    for word in itertools.product(range(1, r + 1), repeat=n):
        if word in seen:
            continue
        comp = component(word, r)
        seen.update(comp)
        label = min(comp)
        q = insert_word(label)[1]
        if check:
            for other in comp:
                if insert_word(other)[1] != q:
                    raise AssertionError(
                        f"recording tableau not constant on the component of {label}"
                    )
        out.append(CrystalComponent(label, comp, q, q.outer))
    out.sort(key=lambda c: c.label)
    return out


def highest_weight_rep(word: Word, r: int) -> Word:
    """The unique all-eps-zero word of the component, reached greedily."""
    word = _check_word(word, r)
    while True:
        for i in range(1, r):
            nxt = e_op(i, word)
            if nxt is not None:
                word = nxt
                break
        else:
            return word


def crystal_edges(n: int, r: int) -> list[tuple[Word, int, Word]]:
    """All (word, i, f_i(word)) triples, for graph export."""
    import itertools

    _check_word_count(n, r)
    out = []
    for word in itertools.product(range(1, r + 1), repeat=n):
        for i in range(1, r):
            nxt = f_op(i, word)
            if nxt is not None:
                out.append((word, i, nxt))
    return out


def djm_violations(n: int, r: int) -> tuple[int, list[str]]:
    """Checks for the crystal/insertion correspondence, per component:
    (a) the recording tableau is constant, (b) taking insertion tableaux is a
    bijection onto the column-strict tableaux of the component's shape,
    (c) insertion intertwines the operators with their tableau counterparts
    acting through reading words.  Returns (cases, violations)."""
    violations: list[str] = []
    comps = decompose(n, r, check=False)
    for comp in comps:
        q = comp.q_symbol
        shape = comp.shape
        symbols = {}
        for b in comp.words:
            symbols[b], q_b = insert_word(b)
            if q_b != q:
                violations.append(
                    f"component {comp.label}: word {b} has a different recording tableau"
                )
        image = set(symbols.values())
        if len(image) != len(comp.words):
            violations.append(f"component {comp.label}: insertion is not injective")
        target = set(semistandard_tableaux(shape, r))
        if image != target:
            violations.append(
                f"component {comp.label}: image has {len(image)} tableaux, "
                f"B(lambda) has {len(target)}"
            )
        for b in comp.words:
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
