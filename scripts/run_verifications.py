#!/usr/bin/env python3
"""Run every verification suite over a range of degrees and print a table.

Degrees 2..--max-n run: 5 by default and at most 5, or with --long 6 by
default and at most 7.
Each degree warms one KL table that its suites share, written to
--cache-dir when given.  A suite is skipped above its degree cap in
``rscells.verify.SUITE_MAX_DEGREE``, and crystal-djm where its n**n words
exceed ``rscells.crystal.MAX_WORDS``.
"""

import argparse
import sys

from rscells.crystal import MAX_WORDS
from rscells.kl import KLTable
from rscells.verify import SUITE_MAX_DEGREE, SUITES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=None, help="default 5, or 6 with --long")
    parser.add_argument("--long", action="store_true", help="allow --max-n up to 7")
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    default, cap = (6, 7) if args.long else (5, 5)
    top = min(default if args.max_n is None else args.max_n, cap)
    failures = 0
    for n in range(2, top + 1):
        table = KLTable(n, cache_dir=args.cache_dir)
        table.warm()
        if args.cache_dir:
            table.save()
        for name in sorted(SUITES):
            too_many_words = name == "crystal-djm" and n**n > MAX_WORDS
            if n > SUITE_MAX_DEGREE.get(name, n) or too_many_words:
                continue
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
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
