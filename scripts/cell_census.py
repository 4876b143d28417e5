#!/usr/bin/env python3
"""Print the left cells of S_n next to the recording tableau they share.

The two columns are computed independently (mu-graph components vs. row
insertion), so agreement on every line is the content of the main theorem.
A degree outside 1..8 (``rscells.kl.WARM_MAX_DEGREE``) exits 3 before any
table is built, as ``rscells cells`` does.
"""

import argparse
import sys

from rscells.cells import cells
from rscells.kl import WARM_MAX_DEGREE
from rscells.permutations import format_permutation
from rscells.tableaux import q_symbol


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n", type=int, nargs="?", default=4)
    args = parser.parse_args()
    if not 1 <= args.n <= WARM_MAX_DEGREE:
        print(f"error: degree {args.n} outside 1..{WARM_MAX_DEGREE}", file=sys.stderr)
        return 3

    part = cells(args.n, "left")
    print(f"S_{args.n}: {len(part.cells)} left cells")
    for cell in part.cells:
        qs = {q_symbol(w) for w in cell}
        members = " ".join(format_permutation(w) for w in cell)
        tag = "" if len(qs) == 1 else "  <-- MIXED Q-SYMBOLS"
        print(f"\ncell: {members}{tag}")
        for line in next(iter(qs)).render().splitlines():
            print(f"    {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
