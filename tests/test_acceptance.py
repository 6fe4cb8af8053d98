"""Acceptance gate: eleven criteria, one printed pass/fail line each.

Each criterion is exact (zero tolerance).  The catalog statement S17 claims
gp_d = 3 for odd cycles with a pendant vertex; the value is 3 on
``cycle_plus:5`` but 1 on ``cycle_plus:7`` (proof in
``statements.check_s17``), so the suite reports exactly one ``fails``
verdict.  Criteria 5 and 11 assert that verdict exactly -- lhs 1 against the
claimed rhs 3 -- and go red on any other failing verdict or on any change to
those two values.
"""

import json
import os
import subprocess
import sys
import time

from genpos import cliques, families, positions, resolving, statements
from genpos.graph6 import parse_graph6, write_graph6
from genpos.graphs import (
    all_pairs_distances,
    diameter,
    simplicial_vertices,
)
from genpos.products import strong_product
from genpos.statements import enumerate_connected

EMITTED = []  # graphs touched by criteria 1-9, round-tripped in criterion 10


def emit(g):
    EMITTED.append(g)
    return g


def report(num, ok, desc):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    print(line, flush=True)
    assert ok, line


def graphs_up_to(n_max, n_min=1):
    for n in range(n_min, n_max + 1):
        yield from enumerate_connected(n)


def pair_corpus():
    gs = [emit(g) for g in graphs_up_to(4, 2)]
    return [(g, h) for g in gs for h in gs]


def all_hold(verdicts):
    return all(v.outcome != "fails" for v in verdicts)


def test_criterion_01_characterization_equals_definition():
    bad = 0
    for g in graphs_up_to(6):
        emit(g)
        dm = all_pairs_distances(g)
        if positions.max_total_oracle(dm)[0] != len(simplicial_vertices(g)):
            bad += 1
            continue
        sr = resolving.strong_resolving_graph(g)
        outer = positions.max_outer_oracle(dm)[0]
        if outer != cliques.max_clique(sr)[0]:
            bad += 1
            continue
        # K1's strong resolving graph has no edge, hence no pruned form
        if g.n > 1 and outer != cliques.max_clique(resolving.prune_isolated(sr))[0]:
            bad += 1
            continue
        full = (1 << g.n) - 1
        for xmask in range(full + 1):
            comp = full & ~xmask
            dual = positions._is_dual_mask(dm, xmask)
            split = positions._is_gp_mask(dm, xmask) and positions._hull_with(
                dm.rowunion, dm.shadow, 0, comp) == comp
            if dual != split:
                bad += 1
                break
    report(1, bad == 0,
           f"gp_t=s, gp_o=omega(SR)=omega(SR'), dual<=>gp+convex on all "
           f"connected n<=6 ({bad} mismatches)")


def test_criterion_02_five_case_mmd_equivalence():
    verdicts = [statements.check_s11(g, h) for g, h in pair_corpus()]
    ok = all_hold(verdicts) and all(v.outcome == "holds" for v in verdicts)
    report(2, ok, f"five-case MMD test on {len(verdicts)} factor pairs")


def test_criterion_03_strong_outer_bounds():
    pairs = pair_corpus()
    v12 = [statements.check_s12(g, h) for g, h in pairs]
    v13 = [statements.check_s13(g, h) for g, h in pairs]
    blocks = sum(1 for v in v13 if v.outcome == "holds")
    ok = all_hold(v12) and all_hold(v13) and blocks > 0
    report(3, ok,
           f"outer bounds on {len(pairs)} pairs, equality on {blocks} "
           f"block-graph pairs")


def test_criterion_04_c5_strong_square_outer_is_5():
    c5 = emit(families.generate(families.parse_family("cycle:5")))
    prod = emit(strong_product(c5, c5).graph)
    outer = positions.INVARIANTS["gp_o"]
    char = outer.characterization(prod)[0]
    oracle = outer.oracle(prod)[0]
    report(4, char == oracle == 5,
           f"gp_o(C5 strong C5): characterization={char}, oracle={oracle}")


def test_criterion_05_strong_dual_results():
    pairs = pair_corpus()
    v16 = [statements.check_s16(g, h) for g, h in pairs]
    hs = [emit(g) for g in graphs_up_to(5)]
    v18 = []
    for m in (2, 3):
        km = families.generate(families.parse_family(f"complete:{m}"))
        v18.extend(statements.check_s18(km, h) for h in hs)
    v17 = statements.check_s17()
    ok16 = all_hold(v16)
    ok18 = all_hold(v18) and all(v.outcome == "holds" for v in v18)
    detail = {v.instance: (v.lhs, v.rhs, v.outcome) for v in v17}
    ok17 = detail == {"cycle_plus:5": (3, 3, "holds"),
                      "cycle_plus:7": (1, 3, "fails")}
    report(5, ok16 and ok18 and ok17,
           f"S16 chain ok={ok16}, S18 equality ok={ok18}, "
           f"S17 pendant-cycle values {detail}")


def test_criterion_06_simplicial_and_total_formulas():
    pairs = pair_corpus()
    complete_h = sum(1 for _, h in pairs if all(
        h.has_edge(u, v) for u in range(h.n) for v in range(u + 1, h.n)))
    out = []
    for sid in ("S9", "S10", "S19", "S20"):
        out.extend(statements.check_statement(sid, p)[0] for p in pairs)
    ok = all(v.outcome == "holds" for v in out) and complete_h > 0
    report(6, ok, f"S9/S10/S19/S20 on {len(pairs)} pairs "
                  f"({complete_h} with complete H)")


def test_criterion_07_lexicographic_outer_formulas():
    singles = [emit(g) for g in graphs_up_to(5, 2)]
    v21 = [statements.check_s21(g) for g in singles]
    pairs = pair_corpus()
    out = []
    for sid in ("S23", "S25", "S26"):
        out.extend(statements.check_statement(sid, p)[0] for p in pairs)
    v24 = []
    for m in (2, 3):
        km = families.generate(families.parse_family(f"complete:{m}"))
        v24.extend(statements.check_s24(g, km) for g in singles)
    checked = sum(1 for v in v21 + out + v24 if v.outcome == "holds")
    ok = all_hold(v21) and all_hold(out) and all_hold(v24) and checked > 0
    report(7, ok, f"S21/S23/S24/S25/S26: {checked} instances hold, zero fail")


def test_criterion_08_dual_lexicographic():
    singles = [emit(g) for g in graphs_up_to(5, 2)]
    v27 = []
    for m in (1, 2, 3):
        km = families.generate(families.parse_family(f"complete:{m}"))
        v27.extend(statements.check_s27(g, km) for g in singles)
    c4 = families.generate(families.parse_family("cycle:4"))
    c5 = families.generate(families.parse_family("cycle:5"))
    zero = [statements.check_s27(g, h) for g in (c4, c5) for h in (c4, c5)]
    ok = (all(v.outcome == "holds" for v in v27)
          and all(v.outcome == "holds" for v in zero))
    report(8, ok, f"S27 complete layers on {len(v27)} instances, "
                  f"zero case on C4/C5 pairs")


def test_criterion_09_sharpness_families():
    v8 = statements.check_s8()
    singles = [g for g in graphs_up_to(5)]
    v7 = [statements.check_s7(g) for g in singles if diameter(g) >= 2]
    for s, r in ((2, 1), (3, 1), (3, 2)):
        emit(families.generate(families.parse_family(f"subdivided_star:{s},{r}")))
    for n, t in ((2, 1), (3, 1), (3, 2)):
        emit(families.generate(families.parse_family(f"clique_paths:{n},{t}")))
    ok = (all(v.outcome == "holds" for v in v8)
          and all(v.outcome == "holds" for v in v7))
    report(9, ok, f"S8 on six family instances, S7 on {len(v7)} graphs")


def test_criterion_10_round_trip():
    assert EMITTED, "criteria 1-9 must run first"
    bad = sum(1 for g in EMITTED if parse_graph6(write_graph6(g)) != g)
    report(10, bad == 0,
           f"parse(write(g)) identity on {len(EMITTED)} emitted graphs")


def test_criterion_11_performance_gate():
    # the child imports the genpos this process imported, installed or not
    src = os.path.dirname(os.path.dirname(statements.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "genpos.cli", "verify",
         "--statements", "all", "--corpus", "exhaustive:5", "--jobs", "4"],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": path},
    )
    elapsed = time.monotonic() - start
    records = []
    for line in proc.stdout.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            break
    if not records or records[-1].get("type") != "summary":
        tail = " / ".join(proc.stderr.strip().splitlines()[-3:])
        report(11, False,
               f"no summary line after {elapsed:.1f}s "
               f"(exit {proc.returncode}); stderr tail: {tail}")
    summary = records[-1]
    # The one expected fail is S17's claimed gp_d = 3 against the value 1.
    fails = {(r["statement"], r["instance"]): (r.get("lhs"), r.get("rhs"))
             for r in records[:-1] if r["outcome"] == "fails"}
    per_statement = {sid: c["fails"]
                     for sid, c in summary["statements"].items() if c["fails"]}
    ok = (proc.returncode == 1 and elapsed <= 60
          and fails == {("S17", "cycle_plus:7"): (1, 3)}
          and summary["fails"] == 1 and per_statement == {"S17": 1})
    report(11, ok,
           f"full suite on exhaustive:5 in {elapsed:.1f}s, exit "
           f"{proc.returncode}, {summary['fails']} fails at {sorted(fails)}, "
           f"S17 cycle_plus:7 (lhs, rhs) = "
           f"{fails.get(('S17', 'cycle_plus:7'))}")
