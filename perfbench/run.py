"""genpos benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload catalog-ex5 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; genpos is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Spans, the full result and its metadata are written under
``.perfbench_out/`` in the checkout.  WORKLOADS.md describes the workloads,
the metrics and the one-process load rule.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 11
SECOND_PASS_MAX_S = 40.0  # keeps a traced run well inside 180 s
READY = "perfbench-ready"


def import_genpos() -> None:
    """Import genpos from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import genpos
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import genpos from {SRC}: {exc}")
    if not os.path.abspath(genpos.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: genpos came from {genpos.__file__}, not {SRC}")



# ---------------------------------------------------------------------------
# metadata


def source_facts() -> dict:
    files = sorted(glob.glob(os.path.join(SRC, "genpos", "*.py")))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the checkout need not be a git repository
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **source_facts(),
    }


# ---------------------------------------------------------------------------
# measurements


def measure_setup(args) -> list[tuple[float, float]]:
    """Interpreter start to inputs ready, in fresh processes; one per sample,
    as (seconds at reference speed, seconds as timed)."""
    from speed import Speedometer

    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    speed = Speedometer()
    samples = []
    for _ in range(SETUP_SAMPLES):
        speed.tick()
        t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        t1 = time.perf_counter()
        ready = [line for line in proc.stdout.splitlines() if line.startswith(READY)]
        if proc.returncode != 0 or not ready:
            sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
        raw = float(ready[-1].split()[1]) - t0
        speed.tick()
        samples.append((raw * speed.factor(t0, t1), raw))
    return samples


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:  # only when operations raised; the run is marked failed
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, wl, meta: dict) -> tuple[dict, int, int]:
    from tracer import Tracer

    setups = measure_setup(args)
    wl.setup()
    tracer = Tracer(record_spans=False)
    if wl.probe_timer:
        tracer.speed.start_timer()
    try:
        out = wl.run_pass(tracer, time.perf_counter)
    finally:
        if wl.probe_timer:
            tracer.speed.stop_timer()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + out.worker_maxrss_kb
    failed = wl.check(out)
    attempted = wl.attempted()
    # The pass's wall time without this process's probes, at reference speed:
    # scaled by how much slower or faster than the reference the machine ran
    # the pass's operations.
    wall = out.wall_s - tracer.speed.busy
    metrics = {
        "wall_s": metric(wall * speed_scale(out), "s"),
        "setup_s": metric(statistics.median(s for s, _ in setups), "s"),
        "op_p50_ms": metric(percentile(out.op_ref_ms, 50), "ms"),
        "op_p95_ms": metric(percentile(out.op_ref_ms, 95), "ms"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }
    raw = {
        "wall_s": wall,
        "setup_s": statistics.median(raw for _, raw in setups),
        "op_p50_ms": percentile(out.op_ms, 50),
        "op_p95_ms": percentile(out.op_ms, 95),
    }
    meta["raw"] = raw
    meta["op_samples"] = len(out.op_ms)
    meta["setup_samples_s"] = setups
    meta["failed_ratio"] = failed / attempted
    print(f"failed_ratio {failed / attempted!r} ratio ({failed} of {attempted} checked outputs)")
    print(f"op samples {len(out.op_ms)}; set-up samples {len(setups)}")
    for name, value in raw.items():
        print(f"raw {name} {value!r} {metrics[name]['unit']} (as timed, before the speed scaling)")
    return metrics, attempted, failed


def layer_metrics(tr, out, untraced_wall: float) -> dict:
    c, s = tr.counts, tr.self_s
    m = {
        "graphs.apd_calls": metric(c["graphs.apd"], "count"),
        "graphs.apd_self_s": metric(s["graphs.apd"], "s"),
        "graphs.blockers_builds": metric(c["graphs.blockers"], "count"),
        "graphs.blockers_self_s": metric(s["graphs.blockers"], "s"),
        "graphs.connectivity_checks": metric(c["graphs.connectivity"], "count"),
        "resolving.boundary_calls": metric(c["resolving.boundary"], "count"),
        "resolving.boundary_self_s": metric(s["resolving.boundary"], "s"),
        "resolving.max_distant_calls": metric(c["resolving.max_distant"], "count"),
        "resolving.mmd_case_calls": metric(c["resolving.mmd_case"], "count"),
        "resolving.mmd_case_self_s": metric(s["resolving.mmd_case"], "s"),
        "resolving.aux_self_s": metric(s["resolving.aux"], "s"),
        "cliques.max_clique_calls": metric(c["cliques.max_clique"], "count"),
        "cliques.self_s": metric(s["cliques.max_clique"] + s["cliques.other"], "s"),
        "positions.gp_oracle_self_s": metric(s["positions.gp_oracle"], "s"),
        "positions.outer_oracle_self_s": metric(s["positions.outer_oracle"], "s"),
        "positions.dual_oracle_self_s": metric(s["positions.dual_oracle"], "s"),
        "positions.dual_char_self_s": metric(s["positions.dual_char"], "s"),
        "positions.total_self_s": metric(s["positions.total"], "s"),
        "positions.bundle_self_s": metric(s["positions.bundle"], "s"),
        "products.build_calls": metric(c["products.build"], "count"),
        "products.vertices_built": metric(tr.vertices_built, "count"),
        "products.build_self_s": metric(s["products.build"], "s"),
    }
    per_sid = {f"S{k}": 0.0 for k in range(1, 28)}
    for sid, _, dur, _ in tr.task_times:
        if sid is not None:
            per_sid[sid] += dur
    for sid, total in per_sid.items():
        m[f"statements.{sid}_s"] = metric(total, "s")
    outcomes = [v["outcome"] for v in out.verdicts]
    m["statements.verdicts"] = metric(len(outcomes), "count")
    m["statements.fails"] = metric(outcomes.count("fails"), "count")
    pnm = outcomes.count("precondition-not-met")
    m["statements.pnm_ratio"] = metric(pnm / len(outcomes) if outcomes else 0.0, "ratio")
    pool_tasks = c["pool.task"]
    busy = sum(d for _, _, d, _ in tr.task_times) if pool_tasks else 0.0
    m["pool.tasks"] = metric(pool_tasks, "count")
    m["pool.efficiency"] = metric(busy / (out.jobs * out.wall_s) if pool_tasks else 0.0, "ratio")
    m["graph6.write_calls"] = metric(c["graph6.write"], "count")
    m["graph6.write_self_s"] = metric(s["graph6.write"], "s")
    m["trace.overhead_ratio"] = metric(ref_wall(out) / untraced_wall, "ratio")
    return m


def speed_scale(out) -> float:
    """How much faster the reference would have run the pass's operations."""
    timed = sum(out.op_ms)
    return sum(out.op_ref_ms) / timed if timed else 1.0


def ref_wall(out) -> float:
    """A pass's wall time at reference speed (see speed.py)."""
    return out.wall_s * speed_scale(out)


def count_metrics(tr, out) -> dict:
    """Every count of a traced pass; two passes over one input must agree."""
    counts = {k: v for k, v in tr.counts.items() if v}
    counts["products.vertices_built"] = tr.vertices_built
    for v in out.verdicts:
        key = f"outcome.{v['outcome']}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def output_digest(out) -> str:
    return hashlib.sha256(repr(out.results).encode()).hexdigest()


def traced_pass(wl, record_spans: bool):
    from tracer import Tracer, install_layers

    tr = Tracer(record_spans=record_spans)
    inst = install_layers(tr)
    try:
        return tr, wl.run_pass(tr, time.perf_counter)
    finally:
        inst.remove()


def check_counts(first: dict, second: dict, what: str) -> None:
    if first != second:
        diff = {k: (first.get(k), second.get(k))
                for k in sorted(set(first) | set(second)) if first.get(k) != second.get(k)}
        sys.exit(f"perfbench: counts differ from {what}: {diff}")
    print(f"counts repeat exactly ({len(first)} counters) against {what}")


def traced(args, wl, meta: dict) -> tuple[dict, int, int]:
    from tracer import Tracer
    import selftest

    selftest.run()
    print("tracer self-test passed: wrapper counts equal cProfile ncalls")
    wl.setup()
    untraced = wl.run_pass(Tracer(record_spans=False), time.perf_counter)
    tr, out = traced_pass(wl, record_spans=True)
    counts = count_metrics(tr, out)
    outputs = [untraced, out]
    # A second traced pass in this process when it fits the run's time limit;
    # else (catalog-ex5 before its first speed-up) the comparison below with
    # the previous traced run of the same source and inputs covers it.
    if out.wall_s <= SECOND_PASS_MAX_S:
        tr2, out2 = traced_pass(wl, record_spans=False)
        check_counts(counts, count_metrics(tr2, out2), "a second traced pass")
        outputs.append(out2)
    compare_with_previous_run(args, meta, counts)
    failed = wl.check(out)
    if len({output_digest(p) for p in outputs}) != 1:
        failed = max(failed, 1)
        print("outputs differ between the untraced and traced passes", file=sys.stderr)
    write_spans(args, tr)
    meta["counts"] = counts
    meta["spans"] = len(tr.spans)
    meta["untraced_wall_s"] = untraced.wall_s
    meta["traced_wall_s"] = out.wall_s
    return layer_metrics(tr, out, ref_wall(untraced)), wl.attempted(), failed


def compare_with_previous_run(args, meta: dict, counts: dict) -> None:
    """Counts must also repeat across traced runs of one source and input."""
    path = os.path.join(OUTDIR, f"counts-{args.workload}-seed{args.seed}-s{args.seconds}.json")
    key = meta["src_sha256"]
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        if previous["src_sha256"] == key:
            check_counts(counts, previous["counts"], "the previous traced run")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"src_sha256": key, "counts": counts}, fh, sort_keys=True)


def write_spans(args, tr) -> None:
    path = os.path.join(OUTDIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, task, name, start, end in tr.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "task": task,
                                 "name": name, "start": start, "end": end}) + "\n")


# ---------------------------------------------------------------------------


def main() -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()

    import_genpos()
    os.makedirs(OUTDIR, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.seconds, OUTDIR)
    if args.setup_only:
        wl.setup()
        print(f"{READY} {time.perf_counter()!r}", flush=True)
        return 0

    meta = metadata(args)
    run = traced if args.trace else end_to_end
    metrics, attempted, failed = run(args, wl, meta)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print("meta " + json.dumps(meta, sort_keys=True))
    path = os.path.join(OUTDIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**result, "meta": meta}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
