#!/usr/bin/env python3
"""Sweep the statement suite over exhaustive corpora and time each order.

Usage:
    python scripts/verify_exhaustive.py --max-n 5 --jobs 4
    python scripts/verify_exhaustive.py --statements S1,S2,S3,S4 --max-n 6

Exit code 0 when every verdict holds or is skipped, 1 when some statement
fails, 2 on a bad argument (an unknown statement id, an order outside the
exhaustive range, fewer than one job): it prints ``error: <message>`` on
stderr.
"""

import argparse
import sys
import time

from genpos.errors import GenposError
from genpos.statements import parse_corpus, parse_statement_ids, run_suite


def sweep(args) -> int:
    ids = parse_statement_ids(args.statements)
    worst = 0
    for n in range(args.min_n, args.max_n + 1):
        corpus = parse_corpus(f"exhaustive:{n}")
        t0 = time.monotonic()
        verdicts, summary = run_suite(corpus, ids, jobs=args.jobs)
        dt = time.monotonic() - t0
        print(f"n={n}: {len(corpus.graphs)} graphs, {summary['total']} verdicts, "
              f"{summary['fails']} fails, {dt:.1f}s")
        for v in verdicts:
            if v.outcome == "fails":
                print(f"  FAIL {v.statement} {v.instance}: "
                      f"lhs={v.lhs} rhs={v.rhs} {v.note}")
        worst = max(worst, summary["fails"])
    return 1 if worst else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--min-n", type=int, default=1)
    ap.add_argument("--statements", default=None,
                    help="comma-separated ids; default all")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    try:
        return sweep(args)
    except GenposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
