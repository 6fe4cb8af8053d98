"""The three benchmark workloads: inputs from a seed, timed passes, checks.

Each workload is an object with

* ``setup()``          build the inputs (timed as set-up, never in a pass);
* ``run_pass(tr, c)``  process every input once; the Tracer ``tr`` times each
                       operation (and, in a traced run, the layers under it)
                       with the clock ``c``;
* ``check(out)``       verify a pass's outputs outside the timed region and
                       return the number of failed operations.

See WORKLOADS.md beside this file for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

CATALOG_JOBS = 2
PAIR_STATEMENTS = ["S9", "S10", "S11", "S12", "S13", "S19", "S20"]


def operations(out, task_times) -> None:
    """Fill out.op_ms and out.op_ref_ms from the pass's task times, summing
    the tasks of each operation."""
    raw: dict = {}
    ref: dict = {}
    for _, op, dur, dur_ref in task_times:
        raw[op] = raw.get(op, 0.0) + dur * 1000.0
        ref[op] = ref.get(op, 0.0) + dur_ref * 1000.0
    out.op_ms = list(raw.values())
    out.op_ref_ms = list(ref.values())


def verdict_line(obj: dict) -> str:
    """One output line exactly as ``genpos verify`` prints it."""
    return json.dumps(obj, sort_keys=True) + "\n"


def _load(name: str):
    with open(os.path.join(REFERENCE, name), encoding="utf-8") as fh:
        return json.load(fh)


class PassOutput:
    def __init__(self):
        self.wall_s = 0.0
        self.op_ms: list[float] = []  # per operation, probes subtracted
        self.op_ref_ms: list[float] = []  # the same at reference speed
        self.results: list = []  # workload-specific
        self.errors: list[str] = []
        self.worker_maxrss_kb = 0
        self.jobs = 1
        self.verdicts: list[dict] = []  # verdict JSON objects, where there are any


# ---------------------------------------------------------------------------
# catalog-ex5


class CatalogEx5:
    """``run_suite(parse_corpus("exhaustive:5"), all statements, jobs=2)``."""

    name = "catalog-ex5"
    corpus_spec = "exhaustive:5"
    probe_timer = False  # the pool workers probe between their tasks

    def __init__(self, seed: int, seconds: int, outdir: str):
        self.seed = seed  # unused: the corpus is exhaustive
        self.outdir = outdir

    def setup(self) -> None:
        from genpos import statements

        self.corpus = statements.parse_corpus(self.corpus_spec)

    def run_pass(self, tracer, clock) -> PassOutput:
        from genpos import statements

        from tracer import TaskRecorder, Installation

        out = PassOutput()
        out.jobs = CATALOG_JOBS
        workdir = tempfile.mkdtemp(prefix="pool-", dir=self.outdir)
        recorder = TaskRecorder(tracer, workdir)
        inst = Installation()
        recorder.install(inst)
        try:
            t0 = clock()
            try:
                verdicts, summary = statements.run_suite(self.corpus, None, jobs=CATALOG_JOBS)
                text = "".join(verdict_line(v.to_json()) for v in verdicts)
                text += verdict_line(summary)
            except Exception as exc:  # a crash fails every operation
                out.errors.append(repr(exc))
                text = ""
            out.wall_s = clock() - t0
        finally:
            inst.remove()
        states = recorder.collect()
        os.rmdir(workdir)
        out.worker_maxrss_kb = sum(s["maxrss_kb"] for s in states)
        operations(out, tracer.task_times)
        out.results = text
        out.verdicts = [json.loads(line) for line in text.splitlines()[:-1]]
        return out

    def attempted(self) -> int:
        return _load("catalog-ex5.json")["verdicts"]

    def check(self, out: PassOutput) -> int:
        ref = _load("catalog-ex5.json")
        if out.errors or not out.results:
            return ref["verdicts"]
        text = out.results
        if hashlib.sha256(text.encode()).hexdigest() == ref["sha256"]:
            return 0
        # Count every verdict of a statement whose stream differs as failed.
        by_sid: dict[str, list[str]] = {}
        for line, obj in zip(text.splitlines(), out.verdicts):
            by_sid.setdefault(obj["statement"], []).append(line + "\n")
        failed = 0
        for sid, expect in ref["statements"].items():
            got = by_sid.get(sid, [])
            if hashlib.sha256("".join(got).encode()).hexdigest() != expect["sha256"]:
                failed += max(len(got), expect["verdicts"])
        return min(max(failed, 1), ref["verdicts"])


# ---------------------------------------------------------------------------
# bundles-mid

PRODUCT_FAMILIES = {
    "cycle": lambda k: f"cycle:{k}",
    "path": lambda k: f"path:{k}",
    "star": lambda k: f"star:{k - 1}",
    "complete": lambda k: f"complete:{k}",
}
PRODUCT_ORDERS = (12, 20)  # product order range of bundles-mid
RANDOM_ORDERS = (10, 22)
RANDOM_DENSITY_MILLI = (150, 500)
BUNDLES_PER_SECOND = 36
RANDOM_SHARE = 0.6


def product_combos() -> list[tuple[str, str, str]]:
    """Every (kind, factor G spec, factor H spec) with factor orders 3..6 and
    product order inside PRODUCT_ORDERS; each is drawn at most once."""
    out = []
    for kind in ("strong", "lex"):
        for fa, ga in PRODUCT_FAMILIES.items():
            for a in range(3, 7):
                for fb, gb in PRODUCT_FAMILIES.items():
                    for b in range(3, 7):
                        if PRODUCT_ORDERS[0] <= a * b <= PRODUCT_ORDERS[1]:
                            out.append((kind, ga(a), gb(b)))
    return out


class BundlesMid:
    """One ``positions.compute_bundle`` call per drawn graph, no graph twice."""

    name = "bundles-mid"
    probe_timer = True

    def __init__(self, seed: int, seconds: int, outdir: str):
        self.seed = seed
        self.count = BUNDLES_PER_SECOND * seconds

    def specs(self) -> list[tuple]:
        # The products are one fixed sample for every seed: their costs are
        # far apart, and a seeded sample would move wall_s by itself.
        combos = product_combos()
        n_products = min(round(self.count * (1 - RANDOM_SHARE)), len(combos))
        specs = [("product",) + c
                 for c in random.Random("bundles-mid:products").sample(combos, n_products)]
        rng = random.Random(f"bundles-mid:{self.seed}")
        # Stratified: orders cycle through RANDOM_ORDERS and each density
        # falls in its own slice of RANDOM_DENSITY_MILLI, so a seed changes
        # the graphs and the pairing of order with density, not the mix.
        n_random = self.count - n_products
        lo, hi = RANDOM_DENSITY_MILLI
        slices = rng.sample(range(n_random), n_random)
        for i in range(n_random):
            n = RANDOM_ORDERS[0] + i % (RANDOM_ORDERS[1] - RANDOM_ORDERS[0] + 1)
            p = lo + int((hi - lo) * (slices[i] + rng.random()) / n_random)
            specs.append(("family", f"random:{n},{p},{rng.randrange(1 << 30)}"))
        rng.shuffle(specs)
        return specs

    def setup(self) -> None:
        from genpos import families, products

        def fam(text):
            return families.generate(families.parse_family(text))

        self.graphs = []
        for spec in self.specs():
            if spec[0] == "family":
                self.graphs.append((spec[1], fam(spec[1])))
            else:
                kind, a, b = spec[1:]
                build = products.strong_product if kind == "strong" else products.lexicographic_product
                self.graphs.append((f"{kind}({a},{b})", build(fam(a), fam(b)).graph))

    def run_pass(self, tracer, clock) -> PassOutput:
        import genpos.positions as positions

        out = PassOutput()
        t0 = clock()
        for i, (label, g) in enumerate(self.graphs):
            try:
                bundle, _ = tracer.task_span("task.bundle", i, None, i,
                                             positions.compute_bundle, g)
            except Exception as exc:
                out.errors.append(f"{label}: {exc!r}")
                bundle = None
            out.results.append((label, g, bundle))
        out.wall_s = clock() - t0
        tracer.finish_tasks()
        operations(out, tracer.task_times)
        return out

    def attempted(self) -> int:
        return len(self.graphs)

    def check(self, out: PassOutput) -> int:
        """diam, omega, alpha against networkx; gp_t, gp_o, gp_d against the
        oracle engine of compute_bundle."""
        import networkx as nx
        from genpos import positions

        failed = 0
        for label, g, bundle in out.results:
            if bundle is None:
                failed += 1
                continue
            G = to_networkx(g)
            expect = {
                "diam": nx.diameter(G),
                "omega": nx.max_weight_clique(G, weight=None)[1],
                "alpha": nx.max_weight_clique(nx.complement(G), weight=None)[1],
            }
            oracle = positions.compute_bundle(g, engine="oracle")
            expect.update({k: oracle[k] for k in ("gp_t", "gp_o", "gp_d")})
            if any(bundle[k] != v for k, v in expect.items()):
                failed += 1
        return failed


def to_networkx(g):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


# ---------------------------------------------------------------------------
# products-large

# Fixed slots (factor G, factor H); the seed draws the random factors only, so
# product orders and families stay the same from seed to seed.
# "random:k" stands for a seeded random connected factor of order k.
# The random pairs sit far from the middle of the cost order, so that the
# seed does not move op_p50_ms, the mean of the 6th and 7th pair.
PRODUCT_SLOTS = [
    ("cycle:6", "path:6"),             # 36
    ("random:6", "random:6"),          # 36
    ("complete:4", "random:10"),       # 40
    ("star:5", "cycle:7"),             # 42
    ("clique_paths:3,2", "cycle:5"),   # 45
    ("path:8", "path:6"),              # 48
    ("cycle:10", "star:4"),            # 50
    ("complete:6", "path:9"),          # 54
    ("path:8", "cycle:7"),             # 56
    ("clique_paths:3,1", "random:10"), # 60
    ("star:7", "complete:8"),          # 64
    ("cycle:10", "path:10"),           # 100
]
RANDOM_FACTOR_DENSITY_MILLI = (250, 450)
PRODUCTS_REFERENCE_SEED = 1


class ProductsLarge:
    """Each factor pair through the pair statements S9..S20 that build strong
    or lexicographic products, serially in this process."""

    name = "products-large"
    probe_timer = True

    def __init__(self, seed: int, seconds: int, outdir: str):
        self.seed = seed

    def specs(self) -> list[tuple[str, str]]:
        rng = random.Random(f"products-large:{self.seed}")
        out = []
        for a, b in PRODUCT_SLOTS:
            pair = []
            for spec in (a, b):
                if spec.startswith("random:"):
                    k = int(spec.split(":")[1])
                    p = rng.randint(*RANDOM_FACTOR_DENSITY_MILLI)
                    spec = f"random:{k},{p},{rng.randrange(1 << 30)}"
                pair.append(spec)
            out.append(tuple(pair))
        return out

    def setup(self) -> None:
        from genpos import families

        self.pairs = [
            (a, b, families.generate(families.parse_family(a)),
             families.generate(families.parse_family(b)))
            for a, b in self.specs()
        ]

    def run_pass(self, tracer, clock) -> PassOutput:
        import genpos.statements as statements

        out = PassOutput()
        t0 = clock()
        task = 0
        for pair, (a, b, g, h) in enumerate(self.pairs):
            for sid in PAIR_STATEMENTS:
                task += 1
                try:
                    (verdict,), _ = tracer.task_span(
                        f"statements.{sid}", task, sid, pair,
                        statements.check_statement, sid, (g, h))
                    out.results.append((sid, g, h, verdict.to_json()))
                except Exception as exc:
                    out.errors.append(f"{sid} {a} {b}: {exc!r}")
                    out.results.append((sid, g, h, None))
        out.wall_s = clock() - t0
        tracer.finish_tasks()
        operations(out, tracer.task_times)
        out.verdicts = [res[3] for res in out.results if res[3] is not None]
        return out

    def attempted(self) -> int:
        return len(self.pairs) * len(PAIR_STATEMENTS)

    def check(self, out: PassOutput) -> int:
        """Every verdict holds (or its precondition is not met) and networkx
        confirms its values.  For the reference seed the stream must also
        match the committed one line for line."""
        ref = None
        if self.seed == PRODUCTS_REFERENCE_SEED:
            ref = _load(f"products-large-seed{PRODUCTS_REFERENCE_SEED}.json")["lines"]
        failed = 0
        for i, (sid, g, h, v) in enumerate(out.results):
            ok = v is not None and v["outcome"] in ("holds", "precondition-not-met")
            if ok and v["outcome"] == "holds":
                ok = independent_check(sid, g, h, v)
            if ok and ref is not None:
                ok = verdict_line(v) == ref[i]
            failed += not ok
        return failed


# ---------------------------------------------------------------------------
# networkx cross-checks of pair-statement verdicts


def _nx_product(g, h, kind):
    import networkx as nx

    build = nx.strong_product if kind == "strong" else nx.lexicographic_product
    P = build(to_networkx(g), to_networkx(h))
    # genpos codec: (a, b) -> a * n_H + b
    return nx.relabel_nodes(P, {(a, b): a * h.n + b for a, b in P.nodes})


def _simplicial(G) -> list[int]:
    out = []
    for v in G.nodes:
        nb = list(G[v])
        if all(G.has_edge(x, y) for i, x in enumerate(nb) for y in nb[i + 1:]):
            out.append(v)
    return sorted(out)


def _mmd_graph(G):
    """Graph on V(G) whose edges are the mutually maximally distant pairs."""
    import networkx as nx

    dist = dict(nx.all_pairs_shortest_path_length(G))
    M = nx.Graph()
    M.add_nodes_from(G.nodes)
    nodes = sorted(G.nodes)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            d = dist[u][v]
            if all(dist[v][w] <= d for w in G[u]) and all(dist[u][w] <= d for w in G[v]):
                M.add_edge(u, v)
    return M


def _outer_and_boundary(G) -> tuple[int, int]:
    """(gp_o, b) from the strong resolving graph: its clique number and the
    number of vertices in some mutually maximally distant pair."""
    import networkx as nx

    M = _mmd_graph(G)
    return nx.max_weight_clique(M, weight=None)[1], sum(1 for v in M if M.degree(v))


def independent_check(sid: str, g, h, v: dict) -> bool:
    if sid in ("S9", "S10"):
        simp = _simplicial(_nx_product(g, h, "strong"))
        return v["lhs"] == (simp if sid == "S9" else len(simp))
    if sid in ("S19", "S20"):
        simp = _simplicial(_nx_product(g, h, "lex"))
        return v["lhs"] == (simp if sid == "S19" else len(simp))
    if sid == "S11":
        pairs = g.n * h.n * (g.n * h.n - 1) // 2
        return v["lhs"] == v["rhs"] == pairs
    if sid in ("S12", "S13"):
        mid, _ = _outer_and_boundary(_nx_product(g, h, "strong"))
        og, bg = _outer_and_boundary(to_networkx(g))
        oh, bh = _outer_and_boundary(to_networkx(h))
        values = [og * oh, mid, mid, bg * bh]
        if sid == "S12":
            return v["lhs"] + v["rhs"] == values
        return [v["lhs"]["lower_vs_mid"], v["rhs"]["lower_vs_mid"],
                v["lhs"]["mid_vs_upper"], v["rhs"]["mid_vs_upper"]] == values
    return False


WORKLOADS = {w.name: w for w in (CatalogEx5, BundlesMid, ProductsLarge)}
