"""Reading and replacing the entries of a KLTable's columns.

A column holds its two-sided extremal ranks, those whose left and right
descent sets contain that of w, and for each an index into the table's
pool of distinct polynomials.  Tests read and edit it as a dict rank ->
polynomial, so they compare values and never pool indices: two tables
number their pools in the order they meet the values.
"""


def read_column(table, w):
    """Column w of ``table`` (computed if need be) as rank -> polynomial."""
    keys, values = table._column(w)
    return {y: table._polys[p] for y, p in zip(keys, values)}


def write_column(table, w, col):
    """Replace column w of ``table`` by the rank -> polynomial dict ``col``;
    the mu lists are recomputed from the edited columns."""
    keys = sorted(col)
    table._columns[w] = table._pack(keys, [table._pool_index(col[y]) for y in keys])
    table._mu_lists.clear()
