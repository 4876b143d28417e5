#!/usr/bin/env python3
"""Run every verification suite over a range of degrees and print a table.

Degrees 2..--max-n run: 5 by default and at most 5, or with --long 6 by
default and at most 9.  A --max-n below 2 exits 2, and one above the cap
exits 3 before any degree runs, with the cap in the message.
A suite is skipped above its degree cap in
``rscells.verify.SUITE_MAX_DEGREE``: bar-invariance above 7, crystal-djm
above 6, and the other suites that read KL polynomials above 8, so at 9
only knuth, evacuation and crystal-theorem-a run.  Each degree prints a
line naming the suites it skipped.  A degree at which some suite reads KL
polynomials computes one KL table that those suites share; any other degree
builds none.  Every suite of a degree, with a table or without, reads the
one ``Ranks`` of that degree (``rscells.permutations.rank_arrays``), so
S_n is enumerated once.
"""

import argparse
import sys

from rscells.kl import KLTable
from rscells.permutations import MAX_DEGREE
from rscells.verify import _TABLE_SUITES, SUITE_MAX_DEGREE, SUITES, run_suite


def top_degree(max_n, long: bool) -> int:
    """The last degree to run for --max-n ``max_n`` (None when not given);
    ValueError names the cap that ``max_n`` exceeds."""
    default, cap = (6, MAX_DEGREE) if long else (5, 5)
    if max_n is None:
        return default
    if max_n > cap:
        without = "" if long else " without --long"
        raise ValueError(f"--max-n stops at degree {cap}{without}, got {max_n}")
    return max_n


def run_degree(n: int) -> int:
    """Run every suite at degree n up to its cap, the ones that read KL
    polynomials on one warm table, print a line for each and one naming
    the suites skipped, and return how many failed."""
    names = [name for name in sorted(SUITES) if n <= SUITE_MAX_DEGREE[name]]
    skipped = sorted(set(SUITES) - set(names))
    table = None
    if _TABLE_SUITES.intersection(names):
        table = KLTable(n)
        table.warm()
    if skipped:
        # not an "n=" line: it reports no suite
        print(f"skipped at n={n}, above their degree caps: {' '.join(skipped)}")
    failures = 0
    for name in names:
        report = run_suite(name, n, table)
        status = "PASS" if report.ok else "FAIL"
        extra = " ".join(f"{k}={v}" for k, v in sorted(report.info.items()))
        print(
            f"n={n} {name:<18} cases={report.cases:<7} {status}"
            f" ({report.wall_time:.2f}s) {extra}"
        )
        if not report.ok:
            failures += 1
            for line in report.violations[:5]:
                print(f"    {line}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=None, help="default 5, or 6 with --long")
    parser.add_argument("--long", action="store_true", help="allow --max-n up to 9")
    args = parser.parse_args()
    if args.max_n is not None and args.max_n < 2:
        # degrees start at 2, so a smaller --max-n would run nothing and pass
        parser.error(f"--max-n must be at least 2, got {args.max_n}")

    try:
        top = top_degree(args.max_n, args.long)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    failures = sum(run_degree(n) for n in range(2, top + 1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
