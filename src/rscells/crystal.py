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
over codes (-1: annihilated), and the P indices and Q codes of all words
come from ``tableaux._symbols``, the walk down the prefix tree that the
permutation suites share: since P(w.a) is P(w) with a inserted (the
plactic monoid), each distinct P, a tuple of rows, is bumped once per
letter.  The tableaux of a shape come as row tuples, with no ``Tableau``
built per filling.

``highest_weight_reps`` walks many words to their highest-weight words in
one call, the permutations of S_n for ``crystal-theorem-a``: e_i is applied
for the least i that does not annihilate, through the same ``_cancel``
scan, and a memo keyed by int codes that lives for the call visits each
word on a path once, so it fills no cache that outlives the call.
``highest_weight_rep`` is its one-word case.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .tableaux import Rows, _semistandard_rows, _symbols, insert_word

Word = tuple[int, ...]

# decompose(), crystal_edges() and djm_violations() refuse alphabets and
# lengths whose word count exceeds this with ValueError; the command line
# refuses crystals past its degree caps before it lists a word
MAX_WORDS = 500_000


def _cancel(i: int, word: Word) -> tuple[list[int], list[int]]:
    """0-based positions of the letters i+1 and i left uncancelled when each
    letter i cancels the most recent open i+1.  Every surviving i lies left
    of every surviving i+1.  The public operators check that i >= 1."""
    above = i + 1
    open_down: list[int] = []   # positions of uncancelled letters i+1
    unmatched_up: list[int] = []  # positions of uncancelled letters i
    for pos, a in enumerate(word):
        if a == above:
            open_down.append(pos)
        elif a == i:
            if open_down:
                open_down.pop()
            else:
                unmatched_up.append(pos)
    return open_down, unmatched_up


def _check_index(i: int) -> None:
    if i < 1:
        raise ValueError(f"operator index must be at least 1, got {i}")


def signature_rule(i: int, word: Word) -> tuple[int | None, int | None]:
    """0-based positions that e_i and f_i change: e_i hits the leftmost
    surviving i+1, f_i the rightmost surviving i; None where nothing survives.

    >>> signature_rule(1, (2, 1, 1, 2))
    (3, 2)
    """
    _check_index(i)
    down, up = _cancel(i, word)
    return (down[0] if down else None), (up[-1] if up else None)


@lru_cache(maxsize=None)
def f_op(i: int, word: Word) -> Word | None:
    """Apply the lowering operator f_i; None when it annihilates."""
    pos = signature_rule(i, word)[1]
    return None if pos is None else word[:pos] + (i + 1,) + word[pos + 1 :]


@lru_cache(maxsize=None)
def e_op(i: int, word: Word) -> Word | None:
    """Apply the raising operator e_i; None when it annihilates."""
    pos = signature_rule(i, word)[0]
    return None if pos is None else word[:pos] + (i,) + word[pos + 1 :]


@lru_cache(maxsize=None)
def phi(i: int, word: Word) -> int:
    """Largest k with f_i^k applicable: the surviving letters i."""
    _check_index(i)
    return len(_cancel(i, word)[1])


@lru_cache(maxsize=None)
def eps(i: int, word: Word) -> int:
    """Largest k with e_i^k applicable: the surviving letters i+1."""
    _check_index(i)
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


# label: the lexicographically least member (a Word); words: a frozenset of
# Words; q_symbol: their common Tableau; shape: its row lengths
CrystalComponent = namedtuple("CrystalComponent", "label words q_symbol shape")


def highest_weight_rep(word: Word, r: int) -> Word:
    """The unique all-eps-zero word of the component, reached greedily."""
    return highest_weight_reps([_check_word(word, r)], r)[0]


def highest_weight_reps(words, r: int) -> list[Word]:
    """The highest-weight word of the component of each word, reached by
    applying e_i for the least i that does not annihilate until every e_i
    does.  The words are tuples over 1..r and are not checked.

    A memo per word length, which lives for the call, maps the code of
    every word met on a path to its highest-weight word, so each is walked
    once.  The code of a word of length n is its base-r number, letter a
    being the digit a - 1.  The walk keeps the word as a list and changes it
    and its code in place: e_i turns a letter i + 1 at 0-based position p
    into i, which lowers the code by r^(n - 1 - p).  Every e_j with j < i
    annihilated before, and for j <= i - 2 it reads only letters below i,
    which e_i did not touch, so the next search starts at i - 1."""
    # length -> (code -> highest-weight word, r^(n - 1 - p) by p)
    memos: dict[int, tuple[dict[int, Word], list[int]]] = {}
    out = []
    for word in words:
        memo = memos.get(len(word))
        if memo is None:
            memo = memos[len(word)] = {}, [r**k for k in reversed(range(len(word)))]
        top, place = memo
        word = list(word)
        code = 0
        for a in word:
            code = code * r + a - 1
        path = []
        i = 1
        while code not in top:
            path.append(code)
            for i in range(max(i - 1, 1), r):
                down = _cancel(i, word)[0]
                if down:
                    pos = down[0]
                    word[pos] = i
                    code -= place[pos]
                    break
            else:
                top[code] = tuple(word)
        rep = top[code]
        for seen in path:
            top[seen] = rep
        out.append(rep)
    return out


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
        raise ValueError(f"crystal with {r}**{n} words is too large (bound {MAX_WORDS})")
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


def _reading_code(rows: Rows, r: int) -> int:
    """Code of the reading word: rows bottom to top, each left to right."""
    code = 0
    for a in itertools.chain.from_iterable(reversed(rows)):
        code = code * r + a - 1
    return code


def decompose(n: int, r: int | None = None) -> list[CrystalComponent]:
    """Partition all r**n words into components, labelled by the common
    recording tableau of their members (constant by the tensor-product
    decomposition theorem, which each call checks)."""
    r = n if r is None else r
    words, _ops, comps = _crystal(n, r)
    qcode = _symbols(n, r)[1]
    out = []
    for members in comps:
        label = words[members[0]]
        if len({qcode[c] for c in members}) > 1:
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
                _reading_code(rows, r): pindex.get(rows, -1)
                for rows in _semistandard_rows(shape, r)
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
