#!/usr/bin/env python3
"""Invariant table for strong and lexicographic products of named families.

Prints one row per (factor pair, product kind) with the factor invariants
next to the product invariants, so the bound chains can be eyeballed.

Usage:
    python scripts/product_table.py cycle:5 cycle:5 path:4 complete:3
    python scripts/product_table.py --kind lex --cap 64 path:3 complete:2

Exit code 0 on success, 2 on a bad argument (an unknown or out-of-range
family spec): it prints ``error: <message>`` on stderr.
"""

import argparse
import itertools
import sys

from genpos.errors import GenposError
from genpos.families import generate, parse_family
from genpos.positions import compute_bundle
from genpos.products import lexicographic_product, strong_product

COLS = ("n", "diam", "s", "b", "gp", "gp_t", "gp_o", "gp_d")


def row(label, bundle):
    cells = "  ".join(f"{bundle[c]:>4}" for c in COLS)
    print(f"{label:<28} {cells}")


def table(args) -> int:
    factors = [(s, generate(parse_family(s))) for s in args.specs]
    header = "  ".join(f"{c:>4}" for c in COLS)
    print(f"{'graph':<28} {header}")
    for spec, g in factors:
        row(spec, compute_bundle(g))
    kinds = {"strong": strong_product, "lex": lexicographic_product}
    if args.kind != "both":
        kinds = {args.kind: kinds[args.kind]}
    for (sa, a), (sb, b) in itertools.combinations_with_replacement(factors, 2):
        if a.n * b.n > args.cap:
            print(f"{sa} x {sb}: order {a.n * b.n} above cap, skipped")
            continue
        for kind, build in kinds.items():
            row(f"{kind}({sa},{sb})", compute_bundle(build(a, b).graph))
            if kind == "lex" and sa != sb:
                row(f"{kind}({sb},{sa})", compute_bundle(build(b, a).graph))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("specs", nargs="+", help="family specs, e.g. cycle:5")
    ap.add_argument("--kind", choices=["strong", "lex", "both"], default="both")
    ap.add_argument("--cap", type=int, default=100,
                    help="skip products above this order")
    args = ap.parse_args()
    try:
        return table(args)
    except GenposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
