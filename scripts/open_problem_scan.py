#!/usr/bin/env python3
"""Experimental: scan for pairs where gp(G x H) != gp(G) gp(H) (strong product).

Equality does not always hold: gp(C7 x C7) = 10 while gp(C7)^2 = 9 (pinned
by ``tests/test_positions.py::test_gp_of_strong_squares_of_cycles``).  The
default ``--product-cap 16`` never reaches a product of that order (49), and
the factors are enumerated only up to order 6, so C7 is never a factor; the
default run reports no gap.  This scan is exploratory and is not part of the
verified statement catalog.  Exact solvers only, so keep the product order
modest.

Usage:
    python scripts/open_problem_scan.py --max-n 4
    python scripts/open_problem_scan.py --max-n 5 --product-cap 20

Exit code 0 after the scan (gaps are reported, not failed), 2 on a bad
argument (an order outside the exhaustive range): it prints
``error: <message>`` on stderr.
"""

import argparse
import sys

from genpos.errors import GenposError
from genpos.graph6 import write_graph6
from genpos.positions import invariant
from genpos.products import strong_product
from genpos.statements import enumerate_connected


def scan(args) -> int:
    graphs = []
    for n in range(args.min_n, args.max_n + 1):
        graphs.extend(enumerate_connected(n))
    gp = {}
    for g in graphs:
        gp[g] = invariant("gp", g)[0]

    checked = 0
    gaps = 0
    for i, g in enumerate(graphs):
        for h in graphs[i:]:
            if g.n * h.n > args.product_cap:
                continue
            prod = strong_product(g, h).graph
            val = invariant("gp", prod)[0]
            checked += 1
            if val != gp[g] * gp[h]:
                gaps += 1
                print(f"gap: {write_graph6(g)} x {write_graph6(h)}: "
                      f"gp(product)={val}, gp(G)gp(H)={gp[g] * gp[h]}")
    print(f"{checked} pairs checked, {gaps} with gp(product) != gp(G)gp(H)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--min-n", type=int, default=2)
    ap.add_argument("--product-cap", type=int, default=16)
    args = ap.parse_args()
    try:
        return scan(args)
    except GenposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
