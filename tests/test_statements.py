"""Statement catalog, corpus parsing, suite runner."""

import itertools
import json
import pickle
import random
from collections import defaultdict
from math import comb

import pytest

from genpos import cliques, graphs, positions, resolving, statements
from genpos.errors import CapacityError, SpecError
from genpos.graph6 import parse_graph6, write_graph6
from genpos.graphs import Graph, disjoint_union, distances
from genpos.products import lexicographic_product, strong_product
from genpos.statements import (
    STATEMENTS,
    Corpus,
    Verdict,
    brute_force_isomorphic,
    check_statement,
    enumerate_connected,
    parse_corpus,
    run_suite,
)
from graph_builders import complete, cycle, family, path, random_graph, to_nx

# Counts of labeled connected graphs, OEIS A001187.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}


# --------------------------------------------------------------------------
# enumeration and corpora


@pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
def test_enumeration_counts(n, count):
    assert sum(1 for _ in enumerate_connected(n)) == count


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        list(enumerate_connected(7))
    with pytest.raises(CapacityError):
        list(enumerate_connected(0))


def test_corpus_exhaustive():
    c = parse_corpus("exhaustive:3")
    assert len(c.graphs) == 4 and not c.pairs


def test_corpus_family_list_with_parameter_commas():
    c = parse_corpus("family:cycle:5,subdivided_star:3,1,path:2")
    assert [g.n for g in c.graphs] == [5, 7, 2]


def test_corpus_family_list_with_a_join_spec():
    # the join's left part has a parameter comma; only a comma followed by a
    # family tag starts the next family
    c = parse_corpus("family:join:subdivided_star:3,1+cycle:4,path:2")
    assert [g.n for g in c.graphs] == [11, 2]
    assert c.graphs[0] == family("join:subdivided_star:3,1+cycle:4")


def test_corpus_family_without_a_family():
    with pytest.raises(SpecError, match="family corpus names no family"):
        parse_corpus("family:")


def test_corpus_file(tmp_path):
    f = tmp_path / "graphs.g6"
    f.write_text("Dhc\nC~\n")
    c = parse_corpus(f"file:{f}")
    assert [g.n for g in c.graphs] == [5, 4]


def test_corpus_pairs():
    c = parse_corpus("pairs:family:path:2,path:3xexhaustive:3")
    assert len(c.pairs) == 2 * 4
    assert c.pairs[0][0].n == 2 and c.pairs[0][1].n == 3


def test_corpus_errors():
    for bad in ("exhaustive:x", "nonsense", "pairs:exhaustive:3", "family:wat:1"):
        with pytest.raises((SpecError, CapacityError)):
            parse_corpus(bad)


@pytest.mark.parametrize("spec, error, message", [
    ("pairs:exhaustive:7xexhaustive:3", CapacityError,
     "exhaustive enumeration supports 1 <= n <= 6"),
    ("pairs:file:/nonexistent.g6xexhaustive:2", FileNotFoundError,
     "No such file or directory: '/nonexistent.g6'"),
    ("pairs:family:path:2,bogus:3xexhaustive:2", SpecError,
     "unknown family tag 'bogus'"),
    ("pairs:exhaustive:2xfamily:cycle:2", SpecError,
     "parameters out of range for family spec cycle:2"),
])
def test_pair_corpus_reports_the_side_error(spec, error, message):
    with pytest.raises(error) as info:
        parse_corpus(spec)
    assert message in str(info.value)


def test_rotation_pairing():
    gs = tuple(enumerate_connected(3))
    c = Corpus(graphs=gs)
    pairs = c.derived_pairs()
    assert len(pairs) == 4
    assert pairs[0] == (gs[0], gs[1]) and pairs[-1] == (gs[-1], gs[0])
    single = Corpus(graphs=(gs[0],))
    assert single.derived_pairs() == ((gs[0], gs[0]),)


def test_pairs_corpus_flattens_to_unique_graphs():
    c = parse_corpus("pairs:family:path:2xfamily:path:2,path:3")
    assert [g.n for g in c.derived_graphs()] == [2, 3]


def test_empty_corpus_derives_nothing():
    assert Corpus() == Corpus(graphs=(), pairs=())
    assert repr(Corpus()) == "Corpus(graphs=(), pairs=())"
    assert Corpus().derived_pairs() == ()
    assert Corpus().derived_graphs() == ()


# --------------------------------------------------------------------------
# isomorphism helper


def test_brute_force_isomorphic():
    relabeled = Graph.from_edges(4, [(3, 2), (2, 1), (1, 0)])
    assert brute_force_isomorphic(path(4), relabeled)
    assert not brute_force_isomorphic(path(4), cycle(4))
    assert not brute_force_isomorphic(path(4), path(5))
    with pytest.raises(CapacityError):
        brute_force_isomorphic(path(13), path(13))


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_brute_force_isomorphic_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(28)
    # Each sampled graph against a relabelled copy of itself and against the
    # next sample with its degree sequence, which the degree filter passes.
    pairs = []
    for n in range(3, 8):
        by_degrees = defaultdict(list)
        for _ in range(400):
            g = random_graph(n, rng.getrandbits(comb(n, 2)))
            by_degrees[tuple(sorted(g.degree(v) for v in range(n)))].append(g)
            pairs.append((g, _relabelled(g, rng)))
        for same in by_degrees.values():
            pairs += zip(same, same[1:])
    assert len(pairs) == 3736
    bad = [(write_graph6(g), write_graph6(h)) for g, h in pairs
           if brute_force_isomorphic(g, h) != nx.is_isomorphic(to_nx(g), to_nx(h))]
    assert bad == []

    assert not brute_force_isomorphic(cycle(6), disjoint_union([complete(3)] * 2))
    assert not brute_force_isomorphic(disjoint_union([cycle(6)] * 2), disjoint_union([cycle(4)] * 3))
    assert brute_force_isomorphic(cycle(12), _relabelled(cycle(12), rng))


# --------------------------------------------------------------------------
# catalog and runner


def test_catalog_shape():
    assert len(STATEMENTS) == 27
    assert {s.arity for s in STATEMENTS.values()} == {"graph", "pair", "fixed"}
    for sid, st in STATEMENTS.items():
        assert st.sid == sid and st.description


def test_check_statement_dispatch():
    verdicts = check_statement("S1", cycle(5))
    assert len(verdicts) == 1 and verdicts[0].outcome == "holds"
    verdicts = check_statement("S14")
    assert verdicts[0].outcome == "holds"
    with pytest.raises(SpecError):
        check_statement("S99", cycle(5))
    with pytest.raises(SpecError):
        check_statement("S1", (cycle(5), cycle(5)))
    with pytest.raises(SpecError):
        check_statement("S14", cycle(5))


@pytest.mark.parametrize("instance", [[1, 2], (1, 2), (cycle(5), 2), (cycle(5),)])
def test_pair_statement_rejects_a_non_pair(instance):
    with pytest.raises(SpecError, match="^S9 expects a pair of graphs$"):
        check_statement("S9", instance)


def test_verdict_json_shape():
    v = check_statement("S1", cycle(5))[0]
    j = v.to_json()
    assert j["type"] == "verdict" and j["statement"] == "S1"
    assert j["instance"] == write_graph6(cycle(5))
    assert j["outcome"] == "holds"


def test_verdict_unpickles_equal_to_itself():
    v = Verdict("S12", "Dhc,Bw", "fails", [1, 2], [2, 3],
                counterexample={"x": [1, 2]}, note="clause i")
    back = pickle.loads(pickle.dumps(v))
    assert back == v and type(back) is Verdict
    assert back.to_json() == v.to_json()


# to_json omits lhs, rhs and counterexample when they are None and the note
# when it is empty; falsy values that are not None are kept.
@pytest.mark.parametrize("fields, extra", [
    ({}, {}),
    ({"lhs": 0}, {"lhs": 0}),
    ({"rhs": []}, {"rhs": []}),
    ({"counterexample": {}}, {"counterexample": {}}),
    ({"note": "n"}, {"note": "n"}),
    ({"lhs": None, "rhs": None, "counterexample": None, "note": ""}, {}),
])
def test_verdict_json_omissions(fields, extra):
    v = Verdict("S1", "Bw", "holds", **fields)
    assert v.to_json() == {"type": "verdict", "statement": "S1", "instance": "Bw",
                           "outcome": "holds", **extra}


@pytest.mark.parametrize("sid", sorted(STATEMENTS, key=lambda s: int(s[1:])))
def test_check_statement_returns_a_list_of_verdicts(sid):
    # A verdict is a tuple, so a bare one where a list is expected would be
    # flattened into its seven fields by the suite runner.
    arity = STATEMENTS[sid].arity
    instance = {"fixed": None, "graph": cycle(5), "pair": (cycle(5), path(3))}[arity]
    verdicts = check_statement(sid, instance)
    assert type(verdicts) is list and verdicts
    assert all(type(v) is Verdict and v.statement == sid for v in verdicts)


def test_suite_merge_is_ordered_and_the_same_in_the_pool():
    # Ids out of numeric order, graph and pair statements, twelve pair groups:
    # the pool and the serial run give the same lines, sorted by statement
    # number and then by instance.
    c = parse_corpus("pairs:family:path:2,path:3,cycle:4xexhaustive:3")
    ids = ["S20", "S9", "S1", "S12"]
    v1, s1 = run_suite(c, ids, jobs=1)
    v2, s2 = run_suite(c, ids, jobs=2)
    lines = [json.dumps(v.to_json(), sort_keys=True) for v in v1]
    assert lines == [json.dumps(v.to_json(), sort_keys=True) for v in v2]
    assert s1 == s2
    keys = [(int(v.statement[1:]), v.instance) for v in v1]
    assert keys == sorted(keys)
    assert list(dict.fromkeys(v.statement for v in v1)) == ["S1", "S9", "S12", "S20"]
    assert list(s1["statements"]) == ["S1", "S9", "S12", "S20"]
    assert s1["total"] == len(v1) == len(c.derived_graphs()) + 3 * len(c.pairs) == 6 + 36


def test_suite_on_exhaustive_4_has_no_unexpected_fails():
    verdicts, summary = run_suite(parse_corpus("exhaustive:4"))
    fails = [v for v in verdicts if v.outcome == "fails"]
    # Sole exception: the claimed dual value 3 for the 7-cycle with a pendant
    # vertex is not attained; exhaustive subset search over all 2^8 sets gives
    # 1 (the complement of any 3-set fails convexity).  The catalog keeps the
    # claimed value and the verdict reports the discrepancy.
    assert [(v.statement, v.instance) for v in fails] == [("S17", "cycle_plus:7")]
    assert fails[0].lhs == 1 and fails[0].rhs == 3
    assert summary["fails"] == 1
    assert summary["statements"]["S1"]["holds"] == 38


def test_s17_split_verdicts():
    verdicts = check_statement("S17")
    by_inst = {v.instance: v.outcome for v in verdicts}
    assert by_inst == {"cycle_plus:5": "holds", "cycle_plus:7": "fails"}


def test_suite_is_deterministic_and_sorted():
    c = parse_corpus("exhaustive:3")
    v1, s1 = run_suite(c, ["S1", "S2", "S12"])
    v2, s2 = run_suite(c, ["S12", "S2", "S1"])
    assert [x.to_json() for x in v1] == [x.to_json() for x in v2]
    keys = [(int(v.statement[1:]), v.instance) for v in v1]
    assert keys == sorted(keys)


def test_suite_parallel_matches_serial():
    c = parse_corpus("exhaustive:3")
    v1, _ = run_suite(c, ["S1", "S4", "S9"], jobs=1)
    v2, _ = run_suite(c, ["S1", "S4", "S9"], jobs=2)
    assert [x.to_json() for x in v1] == [x.to_json() for x in v2]


@pytest.fixture
def built(monkeypatch):
    """The graphs handed to the uncached BFS, in call order."""
    seen = []
    original = graphs.all_pairs_distances

    def counting(g):
        seen.append(g)
        return original(g)

    monkeypatch.setattr(graphs, "all_pairs_distances", counting)
    return seen


def test_one_graph_corpus_builds_its_distances_once(built):
    # run_suite runs a corpus graph through all of its statements as one
    # group, so they share one memoized distance matrix.
    verdicts, _ = run_suite(parse_corpus("family:cycle:5"), ["S1", "S2", "S4", "S6", "S7"])
    assert len(verdicts) == 5
    assert built == [cycle(5)]


def test_one_graph_corpus_searches_each_clique_once(monkeypatch):
    # S2, S4, S21 and S22, and gp_o's characterization (which S4 asks for),
    # take clique numbers of strong resolving graphs built anew by each
    # reader; the memoized search runs once per distinct graph of the group,
    # as the simplicial vertices are scanned once through another memo.
    seen = []
    original = cliques.max_clique

    def counting(g):
        seen.append(g)
        return original(g)

    monkeypatch.setattr(cliques, "max_clique", counting)
    verdicts, _ = run_suite(parse_corpus("family:cycle:5"),
                            ["S2", "S4", "S21", "S22", "S9", "S19"])
    assert [v.outcome for v in verdicts] == ["holds"] * 6
    assert len(set(seen)) < len(seen)
    assert cliques._search.cache_info().misses == len(set(seen))
    # S9 and S19 scan C5 for simplicial vertices once between them, and each
    # of their two products once.
    assert graphs.simplicial_vertices.cache_info().misses == 3


def test_total_and_outer_statements_never_build_a_product_blocker_table():
    # gp_t and gp_o read the row unions that the BFS records, so the
    # statements on them leave each product's blocker table unbuilt.
    g, h = cycle(6), path(6)
    products = [strong_product(g, h).graph, lexicographic_product(g, h).graph]
    tables = [distances(p) for p in products]
    for sid in ("S9", "S10", "S11", "S12", "S13", "S19", "S20"):
        [v] = check_statement(sid, (g, h))
        assert v.outcome != "fails", (sid, v)
    for p, dm in zip(products, tables):
        assert distances(p) is dm
        assert dm._blockers is None


def test_run_suite_calls_run_instance_once_per_task(monkeypatch):
    # The benchmark times each statement x instance by wrapping _run_instance,
    # so it must stay the task unit inside each group.
    calls = []
    original = statements._run_instance

    def counting(args):
        calls.append(args)
        return original(args)

    monkeypatch.setattr(statements, "_run_instance", counting)
    corpus = parse_corpus("exhaustive:3")
    verdicts, _ = run_suite(corpus, jobs=1)
    arities = [st.arity for st in STATEMENTS.values()]
    expected = (arities.count("fixed")
                + len(corpus.derived_graphs()) * arities.count("graph")
                + len(corpus.derived_pairs()) * arities.count("pair"))
    assert len(calls) == expected == 99
    assert len({(sid, repr(inst)) for sid, inst in calls}) == len(calls)
    assert len(verdicts) == 105


@pytest.mark.parametrize("spec,expected", [
    # Rotation corpus: each graph's group holds its rotation pair too.
    ("family:cycle:5,path:3", [
        [("S1", "C5"), ("S9", "C5,P3"), ("S12", "C5,P3")],
        [("S1", "P3"), ("S9", "P3,C5"), ("S12", "P3,C5")],
    ]),
    # Explicit pairs: a first graph that heads several pairs does not hold
    # them all in one group, so a pool can spread them over its workers.
    ("pairs:family:cycle:5xfamily:path:3,cycle:5", [
        [("S1", "C5")], [("S1", "P3")],
        [("S9", "C5,P3"), ("S12", "C5,P3")],
        [("S9", "C5,C5"), ("S12", "C5,C5")],
    ]),
])
def test_run_suite_groups(monkeypatch, spec, expected):
    names = {cycle(5): "C5", path(3): "P3"}
    seen = []
    original = statements._run_group

    def recording(group):
        seen.append([(sid, names[inst] if isinstance(inst, Graph)
                      else ",".join(names[g] for g in inst)) for sid, inst in group])
        return original(group)

    monkeypatch.setattr(statements, "_run_group", recording)
    run_suite(parse_corpus(spec), ["S1", "S9", "S12"])
    assert seen == expected


def test_each_group_starts_with_every_memo_empty(monkeypatch):
    memos = graphs._MEMOS
    firsts = []
    sizes = {}
    run_group, run_instance = statements._run_group, statements._run_instance

    def recording_group(group):
        firsts.append(group[0])
        return run_group(group)

    def recording_instance(task):
        sizes.setdefault(id(task), [m.cache_info().currsize for m in memos])
        return run_instance(task)

    monkeypatch.setattr(statements, "_run_group", recording_group)
    monkeypatch.setattr(statements, "_run_instance", recording_instance)
    # warm every memo before the run
    check_statement("S10", (cycle(5), path(3)))
    check_statement("S2", cycle(5))
    assert all(m.cache_info().currsize for m in memos)
    run_suite(parse_corpus("family:cycle:5,path:3"))
    assert len(firsts) == 3  # the fixed statements, then one group per graph
    first_ids = {id(task) for task in firsts}
    assert all(sizes[task_id] == [0] * len(memos) for task_id in first_ids)
    # ... and the groups do fill them
    assert all(any(s) for task_id, s in sizes.items() if task_id not in first_ids)


def test_unknown_statement_id_rejected():
    with pytest.raises(SpecError):
        run_suite(Corpus(), ["S0"])


# --------------------------------------------------------------------------
# spot checks of individual checkers


def test_s18_on_a_real_pair():
    k3 = family("complete:3")
    p4 = path(4)
    v = check_statement("S18", (k3, p4))[0]
    assert v.outcome == "holds"
    v = check_statement("S18", (p4, k3))[0]
    assert v.outcome == "precondition-not-met"


def test_s27_zero_case():
    c4, c5 = cycle(4), cycle(5)
    v = check_statement("S27", (c4, c5))[0]
    assert v.outcome == "holds"
    assert v.lhs == 0 and v.rhs == 0


def test_s22_small_instance_includes_isomorphism():
    v = check_statement("S22", (path(3), path(2)))[0]
    assert v.outcome == "holds"
    assert any(k.startswith("iso_") for k in v.lhs)


def test_s22_builds_g2bar_once_for_items_i_and_iv(monkeypatch):
    calls = []
    original = resolving.g2bar

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(resolving, "g2bar", counting)
    g, h = path(3), cycle(4)  # twin-free G; H non-complete, no universal vertex
    [v] = check_statement("S22", (g, h))
    assert v.outcome == "holds"
    assert {"omega_i", "omega_iv"} <= set(v.lhs)
    assert calls == [h]


def test_a_pair_group_runs_each_engine_once_on_its_product(monkeypatch):
    # S5 and S16 read the default engine, so the six statements share one
    # cross-checked value of each number of the order-12 product
    g, h = family("complete:3"), path(4)
    engines = ("max_total_oracle", "max_outer_oracle", "max_dual_oracle",
               "_max_dual_characterization")
    calls = defaultdict(int)
    for name in engines:
        def counting(dm, name=name, engine=getattr(positions, name)):
            if dm.n == g.n * h.n:
                calls[name] += 1
            return engine(dm)
        monkeypatch.setattr(positions, name, counting)
    sids = ["S5", "S10", "S12", "S13", "S16", "S18"]
    verdicts = statements._run_group([(sid, (g, h)) for sid in sids])
    assert [(v.statement, v.outcome) for v in verdicts] == [(sid, "holds") for sid in sids]
    assert calls == dict.fromkeys(engines, 1)


def test_a_group_runs_each_engine_once_per_graph(monkeypatch):
    # S1 and S2 read the memo entries that S4, S6, S7, S12 and S13 read, so
    # no engine of INVARIANTS runs twice on one graph of the group
    g, h = path(3), path(4)
    calls = defaultdict(int)

    def counting(key, name, engine):
        def run(graph):
            calls[key, name, graph] += 1
            return engine(graph)
        return run

    for key, entry in positions.INVARIANTS.items():
        if entry.oracle is not None:
            monkeypatch.setitem(positions.INVARIANTS, key, entry._replace(
                characterization=counting(key, "characterization", entry.characterization),
                oracle=counting(key, "oracle", entry.oracle)))
    tasks = [(sid, g) for sid in ("S1", "S2", "S4", "S6", "S7")]
    tasks += [(sid, (g, h)) for sid in ("S12", "S13")]
    verdicts = statements._run_group(tasks)
    assert [v.outcome for v in verdicts] == ["holds"] * len(tasks)
    # the memo never evicted an entry
    assert positions._checked.cache_info().currsize < graphs.MEMO_SIZE
    assert {("gp_t", "oracle", g), ("gp_o", "oracle", g), ("gp_o", "characterization", g)
            } <= set(calls)
    assert set(calls.values()) == {1}


def test_s5_reports_a_layer_that_is_not_isometric(monkeypatch):
    # In P2 o P4 an H-layer induces P4, but its ends are at distance 2, not 3.
    monkeypatch.setattr(statements, "strong_product", lexicographic_product)
    [v] = check_statement("S5", (path(2), path(4)))
    assert (v.outcome, v.note) == ("fails", "layer is not isometric")
    assert v.counterexample == [0, 1, 2, 3]  # the H-layer at a = 0


def test_s5_reports_the_lost_property_in_layer_labels(monkeypatch):
    g, h = path(2), path(3)
    dual = positions.INVARIANTS["gp_d"]._replace(accepts=lambda dm, xmask: dm.n != h.n)
    monkeypatch.setitem(positions.INVARIANTS, "gp_d", dual)
    [v] = check_statement("S5", (g, h))
    assert (v.outcome, v.lhs) == ("fails", "gp_d")
    assert v.note == "restriction lost the property on a layer"
    # the G-layers pass; the first H-layer, at a = 0, is {(0, b)} = {0, 1, 2}
    dual = positions.invariant("gp_d", strong_product(g, h).graph)[1]
    assert v.counterexample == [b for b in range(h.n) if b in dual]


def test_s11_reports_the_first_differing_pair(monkeypatch):
    g, h = cycle(4), path(3)
    p = strong_product(g, h)
    direct = distances(p.graph).mmd
    table = resolving.strong_product_mmd

    def flipped(g, h):
        rows = list(table(g, h))
        for x, y in ((2, 7), (1, 9)):
            rows[x] ^= 1 << y
            rows[y] ^= 1 << x
        return rows

    monkeypatch.setattr(resolving, "strong_product_mmd", flipped)
    [v] = check_statement("S11", (g, h))
    assert v.outcome == "fails"
    # (1, 9) comes before (2, 7) in row-major order
    assert v.lhs is bool(direct[1] >> 9 & 1)
    assert v.rhs is (not v.lhs)
    assert v.counterexample == [list(p.decode(1)), list(p.decode(9))] == [[0, 1], [3, 0]]


def test_s3_fails_when_either_side_has_a_broken_kernel(monkeypatch):
    # A blocker test that always passes makes every set dual, though not every
    # complement is convex; a hull that never grows makes every complement
    # convex, though not every general position set is dual.
    for name, broken in (("_pairs_avoid", lambda blockers, pairs, forbidden: True),
                         ("_hull_with", lambda rowunion, shadow, hull, add: hull | add)):
        with monkeypatch.context() as m:
            m.setattr(positions, name, broken)
            outcomes = [v.outcome for g in enumerate_connected(4)
                        for v in check_statement("S3", g)]
        assert "fails" in outcomes, name


def test_one_pair_statement_builds_each_distance_matrix_once(built):
    g, h = cycle(5), path(3)
    [verdict] = check_statement("S12", (g, h))
    assert verdict.outcome == "holds"
    prod = strong_product(g, h).graph
    assert sorted(built, key=lambda x: (x.n, x.adj)) == [h, g, prod]


def test_product_memo_keeps_the_cap_check():
    # S9 (cap 256) memoizes P5 x P5; S5 (cap 16) still reports its cap.
    pair = (path(5), path(5))
    assert check_statement("S9", pair)[0].outcome == "holds"
    assert statements._built.cache_info().currsize == 1
    for _ in range(2):
        [v] = check_statement("S5", pair)
        assert (v.outcome, v.note) == ("precondition-not-met", "product order above cap 16")


def test_product_memo_returns_one_object_per_group():
    first = statements._built(strong_product, cycle(5), path(3))
    again = statements._built(strong_product, cycle(5), path(3))
    assert again is first and again == strong_product(cycle(5), path(3))
    assert statements._built(lexicographic_product, cycle(5), path(3)) != first
    graphs.clear_memos()
    fresh = statements._built(strong_product, cycle(5), path(3))
    assert fresh is not first and fresh == first


# (note, test) hypotheses that @statement lines name
HYPOTHESES = {name: value for name, value in vars(statements).items()
              if name.isupper() and isinstance(value, tuple) and len(value) == 2
              and isinstance(value[0], str) and callable(value[1])}

# Factors are family specs, or graph6 for the disconnected "B?"; h is None
# for a graph statement.  A comment marks each case where a later check
# would fail too, so the note shows which check comes first.
SKIP_NOTES = [
    ("S3", "path:7", None, "subset sweep capped at n <= 6"),
    ("S4", "path:1", None, "empty boundary (K1): pruned SR graph is empty"),
    ("S21", "path:1", None, "requires order >= 2"),
    ("S15", "complete:3", None, "requires a twin-free graph"),  # and diameter 1
    ("S6", "path:4", None, "requires diameter 2"),
    ("S7", "complete:3", None, "requires diameter >= 2"),
    ("S5", "path:5", "path:5", "product order above cap 16"),
    ("S16", "cycle:5", "path:4", "product order above cap 16"),
    ("S12", "path:1", "path:3", "requires both factors of order >= 2"),
    ("S13", "cycle:4", "path:3", "requires two block graphs"),
    ("S18", "path:4", "complete:3", "first factor must be complete"),
    # a hypothesis before the cap: order 25 is above 24
    ("S18", "path:5", "complete:5", "first factor must be complete"),
    ("S23", "complete:3", "path:3", "first factor must be twin-free"),
    # an earlier hypothesis before a later one: H is complete too
    ("S23", "complete:3", "complete:3", "first factor must be twin-free"),
    ("S23", "path:1", "complete:3", "requires both factors of order >= 2"),
    ("S23", "path:3", "complete:3", "second factor must be non-complete"),
    # a hypothesis before the cap: order 42 is above 36
    ("S23", "complete:7", "path:6", "first factor must be twin-free"),
    ("S23", "path:7", "path:6", "product order above cap 36"),
    ("S24", "path:1", "complete:3", "first factor must have order >= 2"),
    ("S24", "path:3", "path:3", "second factor must be complete of order >= 2"),
    ("S25", "path:3", "cycle:4", "first factor must be complete of order >= 2"),
    ("S25", "complete:3", "star:3", "second factor must have no universal vertex"),
    ("S26", "complete:3", "cycle:4", "first factor must be non-complete"),
    ("S27", "cycle:6", "cycle:5", "i: product order above cap 25"),
    ("S27", "path:3", "path:3", "no clause applicable"),
    # connectivity before a hypothesis: B? is not complete either
    ("S18", "B?", "complete:3", "requires connected graphs"),
]


@pytest.mark.parametrize("sid,g,h,note", SKIP_NOTES)
def test_skip_notes(sid, g, h, note):
    factors = [family(s) if ":" in s else parse_graph6(s)
               for s in (g, h) if s is not None]
    [v] = check_statement(sid, factors[0] if h is None else tuple(factors))
    assert (v.outcome, v.note) == ("precondition-not-met", note)
    assert v.lhs is None and v.rhs is None
    assert v.instance == ",".join(write_graph6(f) for f in factors)


def test_skip_notes_cover_every_hypothesis():
    assert len(HYPOTHESES) == 17
    assert {note for note, _ in HYPOTHESES.values()} <= {note for *_, note in SKIP_NOTES}


# Per-statement (holds, precondition-not-met) on the connected graphs of
# networkx's atlas with n <= 6 (143 isomorphism classes), and on all 81
# ordered pairs of its 9 connected graphs with 2 <= n <= 4.
ATLAS_COUNTS = {
    "S1": (143, 0), "S2": (143, 0), "S3": (143, 0), "S4": (142, 1),
    "S6": (78, 65), "S7": (137, 6), "S15": (39, 104), "S21": (142, 1),
    "S5": (81, 0), "S9": (81, 0), "S10": (81, 0), "S11": (81, 0),
    "S12": (81, 0), "S13": (49, 32), "S16": (81, 0), "S18": (27, 54),
    "S19": (81, 0), "S20": (81, 0), "S22": (61, 20), "S23": (24, 57),
    "S24": (27, 54), "S25": (6, 75), "S26": (12, 69), "S27": (28, 53),
}


def test_every_statement_holds_on_the_atlas():
    # Coverage: each graph and pair statement meets its hypotheses somewhere
    # here (S5, S16, S18, S25 and S27 hold nowhere on the exhaustive:6
    # rotation pairs), and none fails.
    nx = pytest.importorskip("networkx")
    atlas = [Graph.from_edges(a.number_of_nodes(), list(a.edges()))
             for a in nx.graph_atlas_g()[1:] if a.number_of_nodes() <= 6 and nx.is_connected(a)]
    small = [g for g in atlas if 2 <= g.n <= 4]
    assert (len(atlas), len(small)) == (143, 9)
    by_arity = {"graph": Corpus(graphs=tuple(atlas)),
                "pair": Corpus(pairs=tuple(itertools.product(small, small)))}
    counts = {}
    for arity, corpus in by_arity.items():
        ids = [sid for sid, st in STATEMENTS.items() if st.arity == arity]
        _, summary = run_suite(corpus, ids)
        assert summary["fails"] == 0
        counts.update({sid: (c["holds"], c["precondition-not-met"])
                       for sid, c in summary["statements"].items()})
    assert counts == ATLAS_COUNTS


def test_the_lex_outer_gap_on_exhaustive_5_is_counted():
    # A known gap: the abstract says gp_o of lexicographic products is
    # determined in all the cases, yet S23-S26 hold on none of these rotation
    # pairs.  Each has a G with true twins and a non-complete H with a
    # universal vertex; every G is non-complete but one, K5.  A catalog entry
    # that covers them lowers the count.
    corpus = parse_corpus("exhaustive:5")
    verdicts, summary = run_suite(corpus, ["S23", "S24", "S25", "S26"])
    assert summary["fails"] == 0
    held = {v.instance for v in verdicts if v.outcome == "holds"}
    gap = [(g, h) for g, h in corpus.derived_pairs()
           if f"{write_graph6(g)},{write_graph6(h)}" not in held]
    assert (len(corpus.derived_pairs()), len(gap)) == (728, 117)
    assert all(graphs.true_twin_pairs(g) and not graphs.is_complete(h)
               and graphs.universal_vertices(h) for g, h in gap)
    assert [g for g, _ in gap if graphs.is_complete(g)] == [family("complete:5")]


# Three isolated vertices, as a file: corpus may hold them; path:3 is the
# connected partner of the pair instances.
THREE_ISOLATED = parse_graph6("B?")
GRAPH_SIDS = [sid for sid, st in STATEMENTS.items() if st.arity == "graph"]
PAIR_SIDS = [sid for sid, st in STATEMENTS.items() if st.arity == "pair"]
DISCONNECTED_CASES = [(sid, THREE_ISOLATED, "B?") for sid in GRAPH_SIDS] + [
    (sid, pair, name) for sid in PAIR_SIDS for pair, name in [
        ((path(3), THREE_ISOLATED), "path:3,B?"),
        ((THREE_ISOLATED, path(3)), "B?,path:3"),
        ((THREE_ISOLATED, THREE_ISOLATED), "B?,B?"),
    ]
]


@pytest.mark.parametrize("sid, instance", [c[:2] for c in DISCONNECTED_CASES],
                         ids=[f"{sid}-{name}" for sid, _, name in DISCONNECTED_CASES])
def test_disconnected_arguments_are_a_precondition(sid, instance):
    # a disconnected argument ends in this verdict: no statement may raise on
    # it or report a fails verdict (S19 on (B?, B?) has lhs != rhs)
    [v] = check_statement(sid, instance)
    assert (v.outcome, v.note) == ("precondition-not-met", "requires connected graphs")
    assert v.lhs is None and v.rhs is None
