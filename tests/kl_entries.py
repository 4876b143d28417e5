"""Reading and replacing the entries of a KLTable's columns.

A column holds its raised ranks and, for each, an index into the table's
pool of distinct polynomials.  Tests read and edit it as a dict rank ->
polynomial, so they compare values and never pool indices: a loaded and a
warmed table number their pools differently.
"""


def read_column(table, w):
    """Column w of ``table`` (computed or parsed if need be) as rank -> polynomial."""
    keys, values = table._column(w)
    return {y: table._polys[p] for y, p in zip(keys, values)}


def write_column(table, w, col):
    """Replace column w of ``table`` by the rank -> polynomial dict ``col``;
    the mu lists are recomputed from the edited columns."""
    table._columns[w] = table._compact({y: table._pool_index(p) for y, p in col.items()})
    table._mu_lists.clear()
