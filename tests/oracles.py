"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the code paths it checks: Bruhat order
via subwords of one fixed reduced word, composition via explicit function
application, involution counting by direct scan, crystal operators by the
recursive tensor-product rule, evacuation by rectifying punctured tableaux.
"""

import itertools
from functools import lru_cache

from rscells.permutations import identity, multiply_simple, reduced_word
from rscells.tableaux import Tableau, rectify


def all_perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def compose_as_maps(u, v):
    """(u o v)(i) = u(v(i)) with explicit dict maps."""
    um = {i: a for i, a in enumerate(u, start=1)}
    vm = {i: a for i, a in enumerate(v, start=1)}
    return tuple(um[vm[i]] for i in range(1, len(u) + 1))


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


# -- evacuation by rectification ----------------------------------------------

def evacuation_by_rectify(tab):
    """Delete the smallest entry, rectify the punctured skew tableau, and
    record the cell that left the outer shape with the complement label."""
    n = tab.size
    out = {}
    cur = tab
    for step in range(1, n + 1):
        punctured = Tableau((cur.rows[0][1:],) + cur.rows[1:], (1,))
        slid = rectify(punctured)
        old, new = cur.outer, slid.outer + (0,)
        x = next(i for i in range(len(old)) if old[i] != new[i])
        out[(x + 1, old[x])] = n + 1 - step
        cur = slid
    return Tableau(
        [[out[(x, y)] for y in range(1, length + 1)]
         for x, length in enumerate(tab.outer, start=1)]
    )
