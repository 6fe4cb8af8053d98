"""Tracer coverage self-test: wrapper counts must equal cProfile's ncalls.

A small run touches every layer (the catalog on exhaustive:4, serially, a few
bundles and one product pair through the pair statements).  It runs once with
the wrappers installed and cProfile on.  cProfile counts every call of the
original functions, however they were reached, so a call that went around a
wrapper (a module binding the installer missed) shows as a difference.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

SMALL_CORPUS = "exhaustive:4"
SMALL_GRAPHS = ["random:10,300,1", "cycle_plus:7", "clique_paths:3,1"]
SMALL_PAIR = ("cycle:4", "path:4")


def _small_run() -> None:
    from genpos import families, statements
    import genpos.positions as positions
    from workloads import PAIR_STATEMENTS

    def fam(text):
        return families.generate(families.parse_family(text))

    statements.run_suite(statements.parse_corpus(SMALL_CORPUS), None, jobs=1)
    for spec in SMALL_GRAPHS:
        positions.compute_bundle(fam(spec))
    pair = tuple(fam(s) for s in SMALL_PAIR)
    for sid in PAIR_STATEMENTS:
        statements.check_statement(sid, pair)


def run() -> None:
    from tracer import Tracer, install_layers, layer_originals

    originals = layer_originals()
    tracer = Tracer(record_spans=False)
    inst = install_layers(tracer)
    prof = cProfile.Profile()
    try:
        prof.enable()
        _small_run()
        prof.disable()
    finally:
        inst.remove()
    ncalls = {(f, line, name): nc for (f, line, name), (_, nc, *_rest)
              in pstats.Stats(prof).stats.items()}
    expected: dict[str, int] = {}
    for key, fn in originals.values():
        code = fn.__code__
        expected[key] = expected.get(key, 0) + ncalls.get(
            (code.co_filename, code.co_firstlineno, code.co_name), 0)
    got = {key: tracer.counts[key] for key in expected}
    if got != expected:
        diff = {k: (got[k], expected[k]) for k in expected if got[k] != expected[k]}
        sys.exit(f"perfbench: tracer self-test failed, (wrapper, cProfile) counts: {diff}")
    if not all(expected.values()):
        missing = sorted(k for k, v in expected.items() if not v)
        sys.exit(f"perfbench: tracer self-test run never reached {missing}")
