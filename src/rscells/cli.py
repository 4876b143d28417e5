"""
Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 malformed input, 3 degree
bound exceeded, 4 I/O error.  Output on stdout is deterministic for a given
input and cache state; timings go to stderr.  The environment variable
RSCELLS_CACHE_DIR overrides --cache-dir.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import crystal as crystal_mod
from .cells import cells as cell_partition, left_cell_graph
from .kl import MAX_DEGREE, KLTable
from .permutations import format_permutation, parse_permutation
from .tableaux import Tableau, p_symbol, q_symbol, rs_inverse
from .verify import _TABLE_SUITES, SUITE_MAX_DEGREE, SUITES, run_suite

ENV_CACHE_DIR = "RSCELLS_CACHE_DIR"
DEFAULT_MAX_DEGREE = 8
HARD_MAX_DEGREE = MAX_DEGREE
# a table with every column computed takes about 250 MB at S_8, but the
# Bruhat intervals grow 26x, 36x and 48x per degree up to S_8, so S_9
# would take hours and more memory than a few GB; runs that warm every
# column stop here
WARM_MAX_DEGREE = 8

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BOUNDS = 3
EXIT_IO = 4


@dataclass
class Config:
    cache_dir: str | None = None
    max_n: int = DEFAULT_MAX_DEGREE
    long_run: bool = False
    fmt: str = "text"


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
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("n", type=int)

    p = sub.add_parser("cache", help="inspect or build the KL cache")
    p.add_argument("action", choices=("info", "clear", "warm"))
    p.add_argument("n", type=int, nargs="?")
    return parser


def _config(args) -> Config:
    cache_dir = os.environ.get(ENV_CACHE_DIR) or args.cache_dir
    if not 1 <= args.max_n <= HARD_MAX_DEGREE:
        raise ValueError(f"--max-n must lie in 1..{HARD_MAX_DEGREE}")
    return Config(
        cache_dir=cache_dir,
        max_n=args.max_n,
        long_run=args.long,
        fmt=args.format,
    )


def _check_degree(cfg: Config, n: int) -> None:
    if not 1 <= n <= cfg.max_n:
        raise _BoundsError(f"degree {n} outside 1..{cfg.max_n}")


def _parse_perm_arg(cfg: Config, text: str):
    w = parse_permutation(text)
    _check_degree(cfg, len(w))
    return w


def _table(cfg: Config, n: int) -> KLTable:
    return KLTable(n, cache_dir=cfg.cache_dir)


def _check_warm_degree(n: int) -> None:
    """Refuse a run that computes every column of S_n beyond WARM_MAX_DEGREE."""
    if n > WARM_MAX_DEGREE:
        raise _BoundsError(
            f"a full KL table of S_{n} does not fit in memory; "
            f"runs that warm every column stop at degree {WARM_MAX_DEGREE}"
        )


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, sort_keys=True, separators=(", ", ": ")))


# -- commands ---------------------------------------------------------------

def cmd_rsk(cfg: Config, args) -> int:
    w = _parse_perm_arg(cfg, args.w)
    p, q = p_symbol(w), q_symbol(w)
    if cfg.fmt == "json":
        _emit_json({"w": format_permutation(w), "P": p.to_json(), "Q": q.to_json()})
    else:
        _emit("P:\n" + p.render() + "\nQ:\n" + q.render())
    return EXIT_OK


def cmd_rsk_inverse(cfg: Config, args) -> int:
    p = Tableau.from_json(json.loads(args.p))
    q = Tableau.from_json(json.loads(args.q))
    _check_degree(cfg, max(p.size, 1))
    w = rs_inverse(p, q)
    if cfg.fmt == "json":
        _emit_json({"w": format_permutation(w)})
    else:
        _emit(format_permutation(w))
    return EXIT_OK


def cmd_klpoly(cfg: Config, args) -> int:
    y = _parse_perm_arg(cfg, args.y)
    w = _parse_perm_arg(cfg, args.w)
    if len(y) != len(w):
        raise ValueError(f"degree mismatch: {len(y)} vs {len(w)}")
    poly = _table(cfg, len(y)).polynomial(y, w)
    if cfg.fmt == "json":
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


def cmd_cells(cfg: Config, args) -> int:
    _check_degree(cfg, args.n)
    _check_warm_degree(args.n)
    part = cell_partition(args.n, args.side, _table(cfg, args.n))
    if cfg.fmt == "json":
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


def _dot(name: str, edges, label=None) -> str:
    lines = [f"digraph {name} {{"]
    for a, b, lab in edges:
        suffix = f' [label="{lab}"]' if lab is not None else ""
        lines.append(f'  "{a}" -> "{b}"{suffix};')
    lines.append("}")
    return "\n".join(lines)


def cmd_graph(cfg: Config, args) -> int:
    _check_degree(cfg, args.n)
    if args.kind == "mu":
        _check_warm_degree(args.n)
        adj = left_cell_graph(args.n, _table(cfg, args.n))
        edges = sorted(
            (format_permutation(a), format_permutation(b), None)
            for a, nbrs in adj.items()
            for b in nbrs
        )
        if cfg.fmt == "json":
            _emit_json(
                {
                    "n": args.n,
                    "kind": "mu",
                    "nodes": [format_permutation(w) for w in sorted(adj)],
                    "edges": [[a, b] for a, b, _ in edges],
                }
            )
        else:
            _emit(_dot(f"left_cell_graph_{args.n}", edges))
    else:
        triples = crystal_mod.crystal_edges(args.n, args.n)
        fmt_word = lambda word: "".join(str(a) for a in word)
        edges = sorted((fmt_word(a), fmt_word(b), f"f{i}") for a, i, b in triples)
        if cfg.fmt == "json":
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


def cmd_verify(cfg: Config, args) -> int:
    _check_degree(cfg, args.n)
    if args.n >= 6 and not cfg.long_run:
        raise _BoundsError(f"suite at n={args.n} needs --long")
    # only the suites that read KL polynomials get a table
    reads_kl = args.suite in _TABLE_SUITES
    if reads_kl:
        _check_warm_degree(args.n)
    cap = SUITE_MAX_DEGREE.get(args.suite)
    if cap is not None and args.n > cap:
        raise _BoundsError(f"suite {args.suite} stops at degree {cap}")
    table = _table(cfg, args.n) if reads_kl else None
    report = run_suite(args.suite, args.n, table)
    if cfg.fmt == "json":
        _emit_json(report.to_json())
    else:
        _emit("\n".join(report.lines()))
    print(f"completed in {report.wall_time:.2f}s", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_VIOLATION


# kl_s<n>.tsv; digit notation keeps n to one digit
_CACHE_NAME = re.compile(r"kl_s([1-9])\.tsv")


def _cache_records(path: Path) -> int:
    """Records in one cache file: KLTable.load checks the file as a whole,
    and parse_stored every record and the trailer's count."""
    m = _CACHE_NAME.fullmatch(path.name)
    if m is None:
        raise OSError(f"{path}: not a KL cache file name")
    return KLTable(int(m[1]), cache_dir=path.parent).parse_stored()


def cmd_cache(cfg: Config, args) -> int:
    if cfg.cache_dir is None:
        raise ValueError("no cache directory configured (flag or RSCELLS_CACHE_DIR)")
    root = Path(cfg.cache_dir)
    files = sorted(root.glob("kl_s*.tsv")) if root.exists() else []
    if args.action == "info":
        total = 0
        for f in files:
            count = _cache_records(f)
            total += count
            _emit(f"{f.name}: {count} entries")
        _emit(f"total: {total} entries")
        return EXIT_OK
    if args.action == "clear":
        for f in files:
            f.unlink()
        _emit(f"removed {len(files)} file(s)")
        return EXIT_OK
    if args.n is None:
        raise ValueError("cache warm needs a degree argument")
    _check_degree(cfg, args.n)
    _check_warm_degree(args.n)
    start = time.perf_counter()
    try:
        # warm() parses every stored column, so a bad record fails here too
        table = KLTable(args.n, cache_dir=root)
        table.warm()
    except OSError as exc:
        # a fresh table, written over the bad file by save() below
        print(f"note: rebuilding bad cache file: {exc}", file=sys.stderr)
        table = KLTable(args.n)
        table.cache_dir = root
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
    try:
        cfg = _config(args)
        return _COMMANDS[args.command](cfg, args)
    except (_BoundsError, crystal_mod._WordCountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUNDS
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
