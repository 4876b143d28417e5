"""
Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 malformed input, 3 degree
bound exceeded, 4 I/O error or a cache file that differs from its
recomputation.  Output on stdout is deterministic for a given input;
timings go to stderr.  No command reads KL polynomials from the cache: the
cache directory is where ``cache warm`` writes and what ``cache info``
checks.  The environment variable RSCELLS_CACHE_DIR overrides --cache-dir.

Each process imports only the layers its command runs.  This module loads
the permutation, polynomial, KL and cell layers; ``rsk`` and
``rsk-inverse`` import ``tableaux`` when they run, ``graph N crystal``
imports ``crystal`` and ``verify`` imports the suites, so ``klpoly``,
``cells``, ``graph N mu`` and ``cache`` never load them.  The degree caps
of the runs (``SUITE_MAX_DEGREE``, ``CRYSTAL_GRAPH_MAX_DEGREE``) live here,
so the argument parser needs no suite module.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path

# perfbench/spans.py patches cell_partition and left_cell_graph here
from .cells import cells as cell_partition, left_cell_graph
from .kl import WARM_MAX_DEGREE, KLTable
from .permutations import MAX_DEGREE, format_permutation, parse_permutation

ENV_CACHE_DIR = "RSCELLS_CACHE_DIR"
DEFAULT_MAX_DEGREE = 8
# graph N crystal prints every edge of the crystal of the N**N words of
# length N over 1..N: 46,656 words at 6, and at 7 823,543 words with up to
# 4.9 M edges
CRYSTAL_GRAPH_MAX_DEGREE = 6
# the largest degree at which each verify suite is known to finish within
# minutes; verify refuses a larger one before any work.  The suites that
# read KL polynomials warm every column, so they stop at the warm cap: at
# n = 8 descents takes about 1 s and knuth-mu about 5 s past the ~4 s
# warm.  bar-invariance 7 checks 3,550,918 interval identities in about
# 5 s, and 8 would need 170,288,585.  crystal-djm lists all n**n words,
# 46,656 at 6 and 823,543 at 7, past crystal.MAX_WORDS.  knuth, evacuation
# and crystal-theorem-a build no table and pass at 9 in about 1.5, 2 and
# 6-9 s, crystal-theorem-a at a 222 MB peak
SUITE_MAX_DEGREE = {
    "theorem-a": WARM_MAX_DEGREE,
    "descents": WARM_MAX_DEGREE,
    "knuth-mu": WARM_MAX_DEGREE,
    "bar-invariance": 7,
    "crystal-djm": 6,
    "knuth": MAX_DEGREE,
    "evacuation": MAX_DEGREE,
    "crystal-theorem-a": MAX_DEGREE,
}

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BOUNDS = 3
EXIT_IO = 4


class _BoundsError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rscells",
        description="Robinson-Schensted symbols, Kazhdan-Lusztig cells, and crystals",
    )
    parser.add_argument("--format", choices=("text", "json", "dot"), default="text")
    parser.add_argument("--cache-dir", default=None, help="directory for KL cache files")
    parser.add_argument(
        "--max-n", type=int, default=DEFAULT_MAX_DEGREE, help="degree bound (default %(default)s)"
    )
    parser.add_argument("--long", action="store_true", help="allow long runs (n >= 6)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rsk", help="insertion and recording tableaux of a permutation")
    p.add_argument("w")

    p = sub.add_parser("rsk-inverse", help="permutation with the given P and Q symbols")
    p.add_argument("p")
    p.add_argument("q")

    p = sub.add_parser("klpoly", help="Kazhdan-Lusztig polynomial P_{y,w}")
    p.add_argument("y")
    p.add_argument("w")

    p = sub.add_parser("cells", help="cell partition of S_n")
    p.add_argument("n", type=int)
    p.add_argument("side", nargs="?", choices=("left", "right"), default="left")

    p = sub.add_parser("graph", help="mu/descent cell graph or a crystal graph")
    p.add_argument("n", type=int)
    p.add_argument("kind", choices=("mu", "crystal"))

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("suite", choices=sorted(SUITE_MAX_DEGREE))
    p.add_argument("n", type=int)

    p = sub.add_parser("cache", help="inspect or build the KL cache")
    p.add_argument("action", choices=("info", "clear", "warm"))
    p.add_argument("n", type=int, nargs="?")
    return parser


def _check_degree(args, n: int) -> None:
    if not 1 <= n <= args.max_n:
        raise _BoundsError(f"degree {n} outside 1..{args.max_n}")


def _check_run(args, run: str, cap: int) -> None:
    """Refuse ``run`` at degree args.n outside 1..--max-n or above its cap,
    before it builds a table, opens a cache file or lists a word."""
    _check_degree(args, args.n)
    if args.n > cap:
        raise _BoundsError(f"{run} stops at degree {cap}, got {args.n}")


def _parse_perm_arg(args, text: str):
    w = parse_permutation(text)
    _check_degree(args, len(w))
    return w


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, sort_keys=True, separators=(", ", ": ")))


# -- commands ---------------------------------------------------------------

def cmd_rsk(args) -> int:
    from .tableaux import insert_word

    w = _parse_perm_arg(args, args.w)
    p, q = insert_word(w)
    if args.format == "json":
        _emit_json({"w": format_permutation(w), "P": p.to_json(), "Q": q.to_json()})
    else:
        _emit("P:\n" + p.render() + "\nQ:\n" + q.render())
    return EXIT_OK


def cmd_rsk_inverse(args) -> int:
    from .tableaux import Tableau, rs_inverse

    p = Tableau.from_json(json.loads(args.p))
    q = Tableau.from_json(json.loads(args.q))
    _check_degree(args, p.size)
    w = rs_inverse(p, q)
    if args.format == "json":
        _emit_json({"w": format_permutation(w)})
    else:
        _emit(format_permutation(w))
    return EXIT_OK


def cmd_klpoly(args) -> int:
    y = _parse_perm_arg(args, args.y)
    w = _parse_perm_arg(args, args.w)
    if len(y) != len(w):
        raise ValueError(f"degree mismatch: {len(y)} vs {len(w)}")
    poly = KLTable(len(y)).polynomial(y, w)
    if args.format == "json":
        _emit_json(
            {
                "y": format_permutation(y),
                "w": format_permutation(w),
                "coefficients": list(poly.coeffs),
                "pretty": str(poly),
            }
        )
    else:
        _emit(str(poly))
    return EXIT_OK


def cmd_cells(args) -> int:
    _check_run(args, "cells", WARM_MAX_DEGREE)
    part = cell_partition(args.n, args.side, KLTable(args.n))
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "side": part.side,
                "cells": [[format_permutation(w) for w in cell] for cell in part.cells],
                "order": sorted(list(p) for p in part.leq),
            }
        )
    else:
        for cell in part.cells:
            _emit(" ".join(format_permutation(w) for w in cell))
    return EXIT_OK


def _dot(name: str, edges) -> str:
    lines = [f"digraph {name} {{"]
    for a, b, lab in edges:
        suffix = f' [label="{lab}"]' if lab is not None else ""
        lines.append(f'  "{a}" -> "{b}"{suffix};')
    lines.append("}")
    return "\n".join(lines)


def cmd_graph(args) -> int:
    if args.kind == "mu":
        _check_run(args, "graph mu", WARM_MAX_DEGREE)
        adj = left_cell_graph(args.n, KLTable(args.n))
        # the keys come in rank order and each neighbour tuple sorted, which
        # for digit strings is the sorted order of the edges
        names = {w: format_permutation(w) for w in adj}
        edges = [(names[a], names[b], None) for a, nbrs in adj.items() for b in nbrs]
        if args.format == "json":
            _emit_json(
                {
                    "n": args.n,
                    "kind": "mu",
                    "nodes": list(names.values()),
                    "edges": [[a, b] for a, b, _ in edges],
                }
            )
        else:
            _emit(_dot(f"left_cell_graph_{args.n}", edges))
    else:
        _check_run(args, "graph crystal", CRYSTAL_GRAPH_MAX_DEGREE)
        from .crystal import crystal_edges

        triples = crystal_edges(args.n, args.n)
        fmt_word = lambda word: "".join(str(a) for a in word)
        edges = sorted((fmt_word(a), fmt_word(b), f"f{i}") for a, i, b in triples)
        if args.format == "json":
            _emit_json(
                {
                    "n": args.n,
                    "kind": "crystal",
                    "rank": args.n,
                    "edges": [
                        {"from": list(a), "to": list(b), "i": i}
                        for a, i, b in sorted(triples)
                    ],
                }
            )
        else:
            _emit(_dot(f"crystal_graph_{args.n}", edges))
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_run(args, f"verify {args.suite}", SUITE_MAX_DEGREE[args.suite])
    if args.n >= 6 and not args.long:
        raise _BoundsError(f"suite at n={args.n} needs --long")
    from .verify import run_suite

    report = run_suite(args.suite, args.n)
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        _emit("\n".join(report.lines()))
    print(f"completed in {report.wall_time:.2f}s", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_VIOLATION


# kl_s<n>.tsv; digit notation keeps n to one digit
_CACHE_NAME = re.compile(r"kl_s([1-9])\.tsv")


def _cache_degree(path: Path) -> int:
    """The degree of a cache file by its name, refused above the cap of the
    runs that compute every column."""
    m = _CACHE_NAME.fullmatch(path.name)
    if m is None:
        raise OSError(f"{path}: not a KL cache file name")
    n = int(m[1])
    if n > WARM_MAX_DEGREE:
        raise _BoundsError(f"cache info stops at degree {WARM_MAX_DEGREE}, got {n}")
    return n


def cmd_cache(args) -> int:
    if args.cache_dir is None:
        raise ValueError("no cache directory configured (flag or RSCELLS_CACHE_DIR)")
    root = Path(args.cache_dir)
    if args.action == "warm":
        return _cache_warm(args, root)
    if args.n is None:
        files = sorted(root.glob("kl_s*.tsv")) if root.exists() else []
    else:
        _check_degree(args, args.n)
        names = [f"kl_s{args.n}.tsv"]
        if args.action == "clear":
            names.append(f"kl_s{args.n}.right.tsv")  # written by older versions
        files = [root / name for name in names if (root / name).exists()]
    if args.action == "info":
        # every name and degree first, so a refusal computes nothing
        degrees = [_cache_degree(f) for f in files]
        total = 0
        for f, n in zip(files, degrees):
            # KLTable.load checks the file byte for byte against the table
            count = KLTable(n, cache_dir=root).load()
            total += count
            _emit(f"{f.name}: {count} entries")
        _emit(f"total: {total} entries")
        return EXIT_OK
    for f in files:
        f.unlink()
    _emit(f"removed {len(files)} file(s)")
    return EXIT_OK


def _cache_warm(args, root: Path) -> int:
    if args.n is None:
        raise ValueError("cache warm needs a degree argument")
    _check_run(args, "cache warm", WARM_MAX_DEGREE)
    start = time.perf_counter()
    table = KLTable(args.n, cache_dir=root)
    table.warm()
    table.save()
    _emit(f"warmed S_{args.n}: {table.entry_count()} entries")
    print(f"completed in {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "rsk": cmd_rsk,
    "rsk-inverse": cmd_rsk_inverse,
    "klpoly": cmd_klpoly,
    "cells": cmd_cells,
    "graph": cmd_graph,
    "verify": cmd_verify,
    "cache": cmd_cache,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.cache_dir = os.environ.get(ENV_CACHE_DIR) or args.cache_dir
    try:
        if not 1 <= args.max_n <= MAX_DEGREE:
            raise ValueError(f"--max-n must lie in 1..{MAX_DEGREE}")
        return _COMMANDS[args.command](args)
    except _BoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUNDS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
