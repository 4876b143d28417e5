"""Reading and replacing the entries of a KLTable's columns.

A column holds its two-sided extremal ranks, those whose left and right
descent sets contain that of w, and for each an index into the table's
pool of distinct polynomials, in the table's flat store.  Tests read and
edit it as a dict rank -> polynomial, so they compare values and never pool
indices: two tables number their pools in the order they meet the values.
"""

from array import array

from rscells.kl import _ranks


def computed(table):
    """The ranks whose columns ``table`` has computed, ascending."""
    return [w for w, start in enumerate(table._starts) if start >= 0]


def read_column(table, w):
    """Column w of ``table`` (computed if need be) as rank -> polynomial."""
    lo, hi = table._column(w)
    return {table._keys[i]: table._polys[table._values[i]] for i in range(lo, hi)}


def expanded_column(table, w):
    """P_{x,w} for every x in the interval [e, w] as ``_expand`` reads it
    from column w, the walk that writes cache files: rank -> polynomial."""
    xs = list(_ranks(table._support(w)))
    got = {}
    table._expand(w, xs, got)
    return {x: table._polys[got[x]] for x in xs}


def read_mu_list(table, w):
    """The mu list of w in ``table`` as (z, mu(z, w)) pairs, z ascending."""
    zs, ms, lo, hi = table._mu_list(w)
    return tuple(zip(zs[lo:hi], ms[lo:hi]))


def write_column(table, w, col):
    """Replace column w of ``table`` by the rank -> polynomial dict ``col``:
    the new column is appended to the flat store and w's bounds point at it.
    The mu store and the cell partitions are emptied, so both are
    recomputed from the edited columns."""
    keys = sorted(col)
    table._store(w, keys, [table._pool_index(col[y]) for y in keys])
    table._mu_zs = array(table._keycode)
    table._mu_ms = array("B")
    table._mu_starts = array("i", [-1]) * len(table._starts)
    table._cells.clear()
