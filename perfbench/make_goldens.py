#!/usr/bin/env python3
"""Record the benchmark's golden outputs into golden.json.

    python3 perfbench/make_goldens.py

Run it at the commit whose outputs are the reference; the golden.json next
to this file was recorded at the seed commit of the repository.  It runs
every suite and CLI call the workloads make, at the full and the smoke
sizes, and takes about two minutes on 2 CPUs.  Suite reports are stored as
their ``Report.lines()``; CLI calls as the SHA-256 of their stdout.  Before
writing anything it cross-checks every KL polynomial of S_5 against the
canonical basis solved from bar invariance alone
(``hecke.canonical_basis_by_bar``), an independent route.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

sys.path.insert(0, str(run.SRC))

from rscells.hecke import canonical_basis_by_bar  # noqa: E402
from rscells.kl import KLTable  # noqa: E402
from rscells.permutations import all_permutations, length  # noqa: E402
from rscells.verify import run_suite  # noqa: E402

CROSSCHECK_N = 5


def crosscheck(n: int) -> int:
    """Compare P_{y,w} from the recursion with the bar-invariance solve."""
    table = KLTable(n)
    basis = canonical_basis_by_bar(n)
    perms = list(all_permutations(n))
    for w in perms:
        for y in perms:
            solved = basis[w].coeff(y).as_q_polynomial(v_shift=-length(w))
            if solved != table.polynomial(y, w):
                raise SystemExit(f"P_{{{y},{w}}}: recursion and bar solve disagree")
    return len(perms) ** 2


def suite_goldens(tables: dict) -> dict:
    runs = set()
    for sizes in (run.SIZES, run.SMOKE_SIZES):
        runs.update((suite, sizes["s7-cold"]["n"]) for suite in run.S7_SUITES)
        runs.update((suite, sizes["suites-s6"][key]) for suite, key in run.S6_SUITES)
    out = {}
    for suite, n in sorted(runs, key=lambda r: (r[1], r[0])):
        if n not in tables:
            tables[n] = KLTable(n)
        report = run_suite(suite, n, tables[n])
        if not report.ok:
            raise SystemExit(f"{suite} {n} fails at this commit")
        out[f"{suite} {n}"] = report.lines()
        print(f"suite {suite} {n}: {report.wall_time:.1f} s", flush=True)
    return out


def cli_goldens() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RSCELLS_CACHE_DIR"}
    env["PYTHONPATH"] = str(run.SRC)
    out = {}
    for sizes in (run.SIZES, run.SMOKE_SIZES):
        n, small = (str(sizes["cli-warm"][key]) for key in ("n", "small"))
        run.WORK.mkdir(exist_ok=True)
        cache = tempfile.mkdtemp(prefix="goldens-", dir=run.WORK)
        try:
            for argv in (
                ["cache", "warm", small],
                ["cache", "warm", n],
                ["cells", n, "right"],
                ["--long", "verify", "theorem-a", n],
                ["--format", "json", "graph", small, "mu"],
            ):
                proc = subprocess.run(
                    [sys.executable, "-m", "rscells.cli", "--cache-dir", cache] + argv,
                    env=env, cwd=run.ROOT, capture_output=True, check=True,
                )
                out[" ".join(argv)] = hashlib.sha256(proc.stdout).hexdigest()
                print(f"cli {' '.join(argv)}", flush=True)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
    return out


def main() -> int:
    pairs = crosscheck(CROSSCHECK_N)
    print(f"cross-checked {pairs} pairs of S_{CROSSCHECK_N} against the bar solve")
    tables: dict[int, KLTable] = {}
    golden = {
        "commit": run.git_commit(),
        "crosscheck": {"n": CROSSCHECK_N, "pairs": pairs},
        "suites": suite_goldens(tables),
        "cli": cli_goldens(),
    }
    for n in range(4, 8):
        if n not in tables:
            tables[n] = KLTable(n)
        tables[n].warm()
    golden["kl_entries"] = {str(n): t.entry_count() for n, t in sorted(tables.items())}
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
