"""Regenerate the committed reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py

Only for a change that alters the verdict stream on purpose, and says why:
the benchmark counts every verdict that differs from these files as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import run
from tracer import Tracer
from workloads import CatalogEx5, ProductsLarge, PRODUCTS_REFERENCE_SEED, REFERENCE, verdict_line


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def catalog() -> dict:
    wl = CatalogEx5(0, 0, run.OUTDIR)
    wl.setup()
    out = wl.run_pass(Tracer(record_spans=False), time.perf_counter)
    if out.errors:
        sys.exit(f"catalog-ex5 raised: {out.errors}")
    per_sid: dict[str, list[str]] = {}
    for line, v in zip(out.results.splitlines(), out.verdicts):
        per_sid.setdefault(v["statement"], []).append(line + "\n")
    return {
        "corpus": wl.corpus_spec,
        "verdicts": len(out.verdicts),
        "sha256": sha(out.results),
        "fails": [f"{v['statement']} {v['instance']}" for v in out.verdicts
                  if v["outcome"] == "fails"],
        "summary": json.loads(out.results.splitlines()[-1]),
        "statements": {sid: {"verdicts": len(lines), "sha256": sha("".join(lines))}
                       for sid, lines in per_sid.items()},
    }


def products() -> dict:
    wl = ProductsLarge(PRODUCTS_REFERENCE_SEED, 0, run.OUTDIR)
    wl.setup()
    out = wl.run_pass(Tracer(record_spans=False), time.perf_counter)
    if out.errors:
        sys.exit(f"products-large raised: {out.errors}")
    return {"seed": PRODUCTS_REFERENCE_SEED, "pairs": wl.specs(),
            "lines": [verdict_line(v) for v in out.verdicts]}


def main() -> None:
    run.import_genpos()
    os.makedirs(run.OUTDIR, exist_ok=True)
    for name, build in (("catalog-ex5.json", catalog),
                        (f"products-large-seed{PRODUCTS_REFERENCE_SEED}.json", products)):
        with open(os.path.join(REFERENCE, name), "w", encoding="utf-8") as fh:
            json.dump(build(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
