"""Span recording for traced benchmark children.

Spans are recorded from the benchmark's own files: :func:`install` replaces
public callables of ``rscells`` with timing wrappers, patching each name where
its caller looks it up (``rscells.verify.q_symbol``, ``rscells.cli.cell_partition``,
methods on ``KLTable``), so nothing under ``src/`` changes.  Spans stay in
memory as ``(id, parent, name, start, end)`` tuples and are written out once,
when the child ends.  Times are ``time.monotonic()`` seconds, which on Linux
is one clock for every process, so spans of several children line up.
"""

from __future__ import annotations

import functools
import importlib
import time

# counters that keep the largest value seen instead of a sum
MAX_COUNTS = frozenset({"cells.count", "cells.leq_pairs"})


class Recorder:
    """In-memory spans with parent ids, plus counters at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = {}
        self._stack = [0]
        self._last_id = 0

    def add(self, key: str, value: int) -> None:
        if key in MAX_COUNTS:
            self.counts[key] = max(self.counts.get(key, 0), value)
        else:
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(recorder, result, args)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._last_id += 1
            sid, parent = self._last_id, self._stack[-1]
            self._stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if count is not None:
                count(self, result, args)
            return result

        return traced


def _count_save(rec, _result, args):
    rec.add("kl.cache_bytes", args[0].cache_path().stat().st_size)


def _count_load(rec, rows, _args):
    rec.add("kl.rows_loaded", rows)


def _count_graph(rec, adj, _args):
    rec.add("cells.edges", sum(len(nbrs) for nbrs in adj.values()))


def _count_partition(rec, part, _args):
    rec.add("cells.count", len(part.cells))
    rec.add("cells.leq_pairs", len(part.leq))


def _count_components(rec, comps, _args):
    rec.add("crystal.components", len(comps))


# (module, attribute path, span name, counter); a name imported into another
# module is patched there too, because that is where its caller looks it up
PATCHES = (
    ("rscells.kl", "KLTable.warm", "kl.warm", None),
    ("rscells.kl", "KLTable.save", "kl.save", _count_save),
    ("rscells.kl", "KLTable.load", "kl.load", _count_load),
    ("rscells.kl", "KLTable.polynomial", "kl.polynomial", None),
    ("rscells.cells", "left_cell_graph", "cells.graph", _count_graph),
    ("rscells.cli", "left_cell_graph", "cells.graph", _count_graph),
    ("rscells.cells", "cells", "cells.partition", _count_partition),
    ("rscells.verify", "cell_partition", "cells.partition", _count_partition),
    ("rscells.cli", "cell_partition", "cells.partition", _count_partition),
    ("rscells.verify", "q_symbol", "tableaux.q_symbol", None),
    ("rscells.verify", "p_symbol", "tableaux.p_symbol", None),
    ("rscells.verify", "evacuation", "tableaux.evacuation", None),
    ("rscells.crystal", "decompose", "crystal.decompose", _count_components),
    ("rscells.crystal", "djm_violations", "crystal.djm_violations", None),
    ("rscells.crystal", "highest_weight_rep", "crystal.highest_weight_rep", None),
    ("rscells.verify", "canonical_basis_by_bar", "hecke.canonical_basis_by_bar", None),
    ("rscells.verify", "c_prime", "hecke.c_prime", None),
    ("rscells.verify", "bar", "hecke.bar", None),
    ("rscells.verify", "knuth_class", "knuth.knuth_class", None),
)


def install(rec: Recorder) -> list:
    """Patch every boundary in PATCHES and each verify suite; returns the
    list that collects every KLTable built, for ``entry_count()`` at the end."""
    for module, path, name, count in PATCHES:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), count))

    verify = importlib.import_module("rscells.verify")

    def count_cases(suite):
        return lambda r, report, _args: r.add(f"verify.{suite}_cases", report.cases)

    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = rec.wrap(f"verify.{suite}", fn, count_cases(suite))

    kl = importlib.import_module("rscells.kl")
    tables = []
    init = kl.KLTable.__init__

    @functools.wraps(init)
    def register(self, *args, **kwargs):
        tables.append(self)
        init(self, *args, **kwargs)

    kl.KLTable.__init__ = register
    return tables
