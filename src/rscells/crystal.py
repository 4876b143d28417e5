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

The crystal of all words of length n (``decompose``, ``crystal_edges``,
``djm_violations``) works on integer codes: a word is its base-r number,
letter a being the digit a - 1, so codes ascend in lexicographic order and
the least code of a component is its label.  Each e_i and f_i is an array
over codes (-1: annihilated), and the insertion tableaux of all words come
from one walk down the prefix tree, since P(w.a) is P(w) with a inserted
(the plactic monoid): each distinct P, a tuple of rows, is bumped once per
letter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .tableaux import Tableau, _bump, insert_word, semistandard_tableaux

Word = tuple[int, ...]
Rows = tuple[tuple[int, ...], ...]

# decompose(), crystal_edges() and djm_violations() refuse alphabets and
# lengths whose word count exceeds this
MAX_WORDS = 500_000


class _WordCountError(ValueError):
    """r**n exceeds MAX_WORDS; the command line reports it as a bound (exit 3)."""


def _cancel(i: int, word: Word) -> tuple[list[int], list[int]]:
    """0-based positions of the letters i+1 and i left uncancelled when each
    letter i cancels the most recent open i+1.  Every surviving i lies left
    of every surviving i+1."""
    if i < 1:
        raise ValueError(f"operator index must be at least 1, got {i}")
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
    return len(_cancel(i, word)[1])


@lru_cache(maxsize=None)
def eps(i: int, word: Word) -> int:
    """Largest k with e_i^k applicable: the surviving letters i+1."""
    return len(_cancel(i, word)[0])


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


# -- the crystal of all words of length n, on codes --------------------------

def _operators(n: int, r: int, words: list[Word]) -> list[list[int]]:
    """[e_1, f_1, e_2, f_2, ...] as arrays over codes, -1 where the operator
    annihilates."""
    place = [r ** (n - 1 - p) for p in range(n)]
    ops = [[-1] * len(words) for _ in range(2 * (r - 1))]
    for i in range(1, r):
        e, f = ops[2 * i - 2], ops[2 * i - 1]
        for c, word in enumerate(words):
            down, up = _cancel(i, word)
            if down:
                e[c] = c - place[down[0]]
            if up:
                f[c] = c + place[up[-1]]
    return ops


def _crystal(n: int, r: int) -> tuple[list[Word], list[list[int]], list[list[int]]]:
    """(words by code, operator arrays, components) after the bounds checks;
    a component is the ascending list of its codes, found by a breadth-first
    search, and the components ascend by their least code."""
    if n < 1:
        raise ValueError(f"word length must be at least 1, got {n}")
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    if r**n > MAX_WORDS:
        raise _WordCountError(f"crystal with {r}**{n} words is too large (bound {MAX_WORDS})")
    words = list(itertools.product(range(1, r + 1), repeat=n))
    ops = _operators(n, r, words)
    seen = bytearray(len(words))
    comps = []
    c = 0
    while c >= 0:
        seen[c] = 1
        members = [c]
        for x in members:
            for op in ops:
                y = op[x]
                if y >= 0 and not seen[y]:
                    seen[y] = 1
                    members.append(y)
        comps.append(sorted(members))
        c = seen.find(0, c + 1)
    return words, ops, comps


def _symbols(n: int, r: int) -> tuple[list[int], list[int], list[Rows], dict[Rows, int]]:
    """(P index by code, Q code by code, the distinct P as row tuples, their
    indices).  The prefix w.a has P(w.a) = P(w) <- a, so a walk down the
    prefix tree bumps each distinct P once per letter.  The Q code is the
    base-n number of the rows that the bumps grew: it determines Q."""
    prows: list[Rows] = [()]
    pindex = {(): 0}
    steps: dict[int, list[tuple[int, int]]] = {}  # P -> (P <- a, row it grew) per letter
    pidx, qcode = [0], [0]
    for _ in range(n):
        next_p, next_q = [], []
        for p, q in zip(pidx, qcode):
            if p not in steps:
                steps[p] = []
                for a in range(1, r + 1):
                    grown = [list(row) for row in prows[p]]
                    x = _bump(grown, a)[0] - 1
                    rows = tuple(map(tuple, grown))
                    if pindex.setdefault(rows, len(prows)) == len(prows):
                        prows.append(rows)
                    steps[p].append((pindex[rows], x))
            for p2, x in steps[p]:
                next_p.append(p2)
                next_q.append(q * n + x)
        pidx, qcode = next_p, next_q
    return pidx, qcode, prows, pindex


def _reading_code(rows: Rows, r: int) -> int:
    """Code of the reading word: rows bottom to top, each left to right."""
    code = 0
    for a in itertools.chain.from_iterable(reversed(rows)):
        code = code * r + a - 1
    return code


def decompose(n: int, r: int | None = None, check: bool = True) -> list[CrystalComponent]:
    """Partition all r**n words into components, labelled by the common
    recording tableau of their members (constant by the tensor-product
    decomposition theorem; ``check`` verifies it)."""
    r = n if r is None else r
    words, _ops, comps = _crystal(n, r)
    qcode = _symbols(n, r)[1] if check else None
    out = []
    for members in comps:
        label = words[members[0]]
        if check and len({qcode[c] for c in members}) > 1:
            raise AssertionError(f"recording tableau not constant on the component of {label}")
        q = insert_word(label)[1]
        out.append(CrystalComponent(label, frozenset(words[c] for c in members), q, q.outer))
    return out


def crystal_edges(n: int, r: int) -> list[tuple[Word, int, Word]]:
    """All (word, i, f_i(word)) triples, for graph export."""
    words, ops, _comps = _crystal(n, r)
    return [
        (word, i, words[ops[2 * i - 1][c]])
        for c, word in enumerate(words)
        for i in range(1, r)
        if ops[2 * i - 1][c] >= 0
    ]


def djm_violations(n: int, r: int) -> tuple[int, list[str]]:
    """Checks for the crystal/insertion correspondence, per component:
    (a) the recording tableau is constant, (b) taking insertion tableaux is a
    bijection onto the column-strict tableaux of the component's shape,
    (c) insertion intertwines the operators with their tableau counterparts
    acting through reading words.  Returns (cases, violations)."""
    words, ops, comps = _crystal(n, r)
    pidx, qcode, prows, pindex = _symbols(n, r)
    reading = [_reading_code(rows, r) for rows in prows]
    # shape -> {reading code of a tableau of B(shape): the P index of that
    # tableau, -1 if no word inserts to it}
    crystals: dict[tuple[int, ...], dict[int, int]] = {}
    violations: list[str] = []
    for members in comps:
        label, q = words[members[0]], qcode[members[0]]
        for c in members:
            if qcode[c] != q:
                violations.append(
                    f"component {label}: word {words[c]} has a different recording tableau"
                )
        shape = tuple(map(len, prows[pidx[members[0]]]))
        if shape not in crystals:
            crystals[shape] = {
                _reading_code(t.rows, r): pindex.get(t.rows, -1)
                for t in semistandard_tableaux(shape, r)
            }
        tabs = crystals[shape]
        image = {pidx[c] for c in members}
        if len(image) != len(members):
            violations.append(f"component {label}: insertion is not injective")
        if image != set(tabs.values()):
            violations.append(
                f"component {label}: image has {len(image)} tableaux, "
                f"B(lambda) has {len(tabs)}"
            )
        for c in members:
            rw = reading[pidx[c]]
            for k, op in enumerate(ops):
                b2, rw2 = op[c], op[rw]
                if (b2 < 0) != (rw2 < 0):
                    problem = "annihilation mismatch with the reading word"
                elif b2 < 0 or tabs.get(rw2) == pidx[b2]:
                    continue
                elif rw2 not in tabs:
                    problem = "reading word left the tableau crystal"
                else:
                    problem = "insertion does not intertwine the operators"
                violations.append(
                    f"word {words[c]}, op {'ef'[k % 2]}_op i={k // 2 + 1}: {problem}"
                )
    return r**n, violations
