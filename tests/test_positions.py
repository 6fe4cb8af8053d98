"""Position predicates, both solver engines, and their agreement."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from genpos import positions
from genpos.errors import DomainError, GenposError
from genpos.graph6 import write_graph6
from genpos.graphs import (
    Graph,
    all_pairs_distances,
    clear_memos,
    false_twin_classes,
    iter_bits,
    join,
    to_mask,
)
from genpos.positions import (
    INVARIANTS,
    compute_bundle,
    invariant,
    is_convex,
    max_dual_oracle,
    max_gp_oracle,
    max_outer_oracle,
    max_total_oracle,
    structure_bundle,
)
from genpos.products import lexicographic_product, strong_product
from genpos.statements import check_statement, enumerate_connected
from graph_builders import accepts, complete, connected_graphs, cycle, family, path, random_connected, to_nx


def k4_with_pendant():
    return Graph.from_edges(5, list(itertools.combinations(range(4), 2)) + [(3, 4)])


def subsets(n):
    for m in range(1 << n):
        yield [v for v in range(n) if m >> v & 1]


# --------------------------------------------------------------------------
# predicates on hand-checked examples


def test_predicates_on_c4():
    dm = all_pairs_distances(cycle(4))
    assert accepts("gp", dm, [0, 1])
    assert not accepts("gp", dm, [0, 1, 2])  # 1 is between 0 and 2
    assert accepts("gp_o", dm, [0, 2])  # a diagonal never blocks anything
    assert not accepts("gp_o", dm, [0, 1])  # 1 lies between 0 and 2
    assert accepts("gp_d", dm, [0, 1])  # complement is an edge, convex
    assert not accepts("gp_d", dm, [0, 2])  # complement pair 1,3 is blocked
    assert not accepts("gp_d", dm, [0, 1, 2, 3])  # the whole vertex set is not gp
    assert not accepts("gp_t", dm, [0])
    assert is_convex(dm, [0, 1])
    assert not is_convex(dm, [0, 2])


def test_total_on_paths():
    dm = all_pairs_distances(path(4))
    assert accepts("gp_t", dm, [0, 3])
    assert not accepts("gp_t", dm, [0, 1])
    assert max_total_oracle(dm) == (2, frozenset({0, 3}))


# --------------------------------------------------------------------------
# oracles versus exhaustive subset enumeration


@given(g=connected_graphs(2, 6))
@settings(max_examples=60, deadline=None)
def test_oracles_match_subset_enumeration(g):
    dm = all_pairs_distances(g)
    table = {
        "gp": max_gp_oracle,
        "gp_o": max_outer_oracle,
        "gp_d": max_dual_oracle,
        "gp_t": max_total_oracle,
    }
    for key, solver in table.items():
        brute = max(len(s) for s in subsets(g.n) if accepts(key, dm, s))
        size, witness = solver(dm)
        assert size == brute
        assert accepts(key, dm, witness)


# --------------------------------------------------------------------------
# engine agreement (characterization vs definition)


@given(g=connected_graphs(2, 8))
@settings(max_examples=80, deadline=None)
def test_engines_agree(g):
    dm = all_pairs_distances(g)
    for entry in INVARIANTS.values():
        results = [engine(g) for engine in (entry.characterization, entry.oracle) if engine]
        for size, witness in results:
            assert size == results[0][0]
            assert len(witness) == size and entry.accepts(dm, to_mask(witness))


@given(g=connected_graphs(2, 7))
@settings(max_examples=50, deadline=None)
def test_invariant_chain(g):
    gp, t, o, d = (invariant(key, g)[0] for key in ("gp", "gp_t", "gp_o", "gp_d"))
    # a total set is both an outer and a dual set; all are gp sets
    assert t <= o <= gp
    assert t <= d <= gp


@given(g=connected_graphs(2, 7))
@settings(max_examples=40, deadline=None)
def test_gp_and_outer_are_hereditary(g):
    dm = all_pairs_distances(g)
    _, w = max_gp_oracle(dm)
    w = sorted(w)
    assert all(accepts("gp", dm, w[:k]) for k in range(len(w) + 1))
    _, w = max_outer_oracle(dm)
    w = sorted(w)
    assert all(accepts("gp_o", dm, w[:k]) for k in range(len(w) + 1))


@pytest.mark.parametrize("build, a, b, expected", [
    (lexicographic_product, "star:4", "path:5", 0),
    (strong_product, "star:4", "complete:5", 20),
    (lexicographic_product, "path:5", "complete:5", 10),
    # 6 * gp_d(C5); every layer is a true-twin class of six
    (lexicographic_product, "cycle:5", "complete:6", 12),
])
def test_dual_engine_above_the_cross_check_cap(build, a, b, expected):
    g = build(family(a), family(b)).graph
    assert g.n > INVARIANTS["gp_d"].cap
    dm = all_pairs_distances(g)
    size, witness = positions._max_dual_characterization(dm)
    assert size == max_dual_oracle(dm)[0] == expected
    assert len(witness) == size and accepts("gp_d", dm, witness)


# gp_d and witness of large products by the characterization alone, recorded
# before the split-pair prunes of the dual search; max_dual_oracle confirms
# them too, but takes seconds on lex(C8, K8), so it does not run here.
@pytest.mark.parametrize("build, a, b, size, witness", [
    (lexicographic_product, "cycle:8", "complete:8", 0, []),
    (lexicographic_product, "cycle:9", "complete:9", 0, []),
    (strong_product, "cycle:8", "cycle:8", 0, []),
    (lexicographic_product, "cycle:9", "path:8", 0, []),
    (lexicographic_product, "cycle:5", "complete:6", 12, list(range(12))),
], ids=["lex(cycle:8,complete:8)", "lex(cycle:9,complete:9)", "strong(cycle:8,cycle:8)",
        "lex(cycle:9,path:8)", "lex(cycle:5,complete:6)"])
def test_recorded_dual_values_of_large_products(build, a, b, size, witness):
    g = build(family(a), family(b)).graph
    dm = all_pairs_distances(g)
    assert positions._max_dual_characterization(dm) == (size, frozenset(witness))


def test_split_filter_reach():
    # Q_x of a star's centre is a triangle on the leaves: the centre is in no
    # dual set.  In C8 x C8 every Q_x has an odd cycle, so the filter alone
    # settles gp_d = 0.
    star = family("star:3")
    [centre] = [v for v in range(star.n) if star.degree(v) == 3]
    assert positions._never_dual(all_pairs_distances(star)) == 1 << centre
    c8 = cycle(8)
    square = strong_product(c8, c8).graph
    assert positions._never_dual(all_pairs_distances(square)) == (1 << 64) - 1


@given(g=connected_graphs(2, 8))
@settings(max_examples=200, deadline=None)
def test_dual_search_prunes_against_the_definition(g):
    dm = all_pairs_distances(g)
    dual = [x for x in subsets(g.n) if accepts("gp_d", dm, x)]
    # the split-pair filter excludes only vertices of no dual set
    never = positions._never_dual(dm)
    assert not any(never >> v & 1 for x in dual for v in x)
    # the witness is the first largest dual set in combinations order
    k = max(len(x) for x in dual)
    first = next(x for x in itertools.combinations(range(g.n), k) if accepts("gp_d", dm, x))
    assert positions._max_dual_characterization(dm) == (k, frozenset(first))


@given(g=connected_graphs(2, 8))
@settings(max_examples=200, deadline=None)
def test_gp_search_against_the_definition(g):
    dm = all_pairs_distances(g)
    k = max(len(x) for x in subsets(g.n) if accepts("gp", dm, x))
    # the witness is the first largest general position set in combinations order
    first = next(x for x in itertools.combinations(range(g.n), k)
                 if accepts("gp", dm, x))
    assert max_gp_oracle(dm) == (k, frozenset(first))


def first_largest(dm, key):
    """The first largest ``key`` set in combinations order."""
    return next(x for k in range(dm.n, -1, -1)
                for x in itertools.combinations(range(dm.n), k) if accepts(key, dm, x))


def test_gp_search_on_every_labeled_graph_of_order_4_and_5():
    # Both modes return the first largest set in combinations order that
    # passes the definition-level predicate, on all 38 + 728 labeled
    # connected graphs of these orders.
    graphs = [g for n in (4, 5) for g in enumerate_connected(n)]
    assert len(graphs) == 766
    for g in graphs:
        dm = all_pairs_distances(g)
        for dual, key in ((False, "gp"), (True, "gp_d")):
            first = first_largest(dm, key)
            assert positions._max_gp_search(dm, dual) == (len(first), frozenset(first))


def closure(dm, mask):
    """Geodesic hull by the definition: add blocker masks to a fixed point."""
    while True:
        grown = mask
        for a, b in itertools.combinations(iter_bits(mask), 2):
            grown |= dm.blockers[a][b]
        if grown == mask:
            return mask
        mask = grown


@given(g=connected_graphs(2, 10), start=st.integers(0, (1 << 10) - 1),
       add=st.integers(0, (1 << 10) - 1), other=st.integers(0, (1 << 10) - 1))
@settings(max_examples=200, deadline=None)
def test_shadow_kernels_against_the_definition(g, start, add, other):
    dm = all_pairs_distances(g)
    full = (1 << g.n) - 1
    start, add, other = start & full, add & full, other & full
    hull = closure(dm, start)
    assert positions._hull_with(dm.rowunion, dm.shadow, hull, add) == closure(dm, hull | add)
    # the dual acceptance test: no vertex of X inside a geodesic of the complement
    comp = ~add & full
    assert positions._shadow_avoid(dm.rowunion, dm.shadow, comp, add) == is_convex(
        dm, iter_bits(comp))
    assert positions._shadow_avoid(dm.rowunion, dm.shadow, start, other) == (
        positions._pairs_avoid(dm.blockers, start, other))


# The lexicographically first maximum set is the witness of the gp search in
# both modes; pinned on graphs full of true twins, so a change of search
# order or of the twin rule shows here.
TWIN_HEAVY_WITNESSES = [
    (lexicographic_product(path(3), complete(2)).graph, [0, 1, 2, 3], [0, 1, 2, 3]),
    (strong_product(complete(3), path(4)).graph, [0, 1, 4, 5, 8, 9], [0, 1, 4, 5, 8, 9]),
    (strong_product(cycle(5), complete(2)).graph, [0, 1, 2, 3, 6, 7], [0, 1, 2, 3]),
    (lexicographic_product(cycle(5), complete(3)).graph,
     [0, 1, 2, 3, 4, 5, 9, 10, 11], [0, 1, 2, 3, 4, 5]),
    (k4_with_pendant(), [0, 1, 2, 3], [0, 1, 2, 3]),
]


@pytest.mark.parametrize("g, gp_witness, dual_witness", TWIN_HEAVY_WITNESSES,
                         ids=["lex(path:3,complete:2)", "strong(complete:3,path:4)",
                              "strong(cycle:5,complete:2)", "lex(cycle:5,complete:3)",
                              "K4+pendant"])
def test_gp_search_witnesses_on_true_twins(g, gp_witness, dual_witness):
    dm = all_pairs_distances(g)
    assert max_gp_oracle(dm) == (len(gp_witness), frozenset(gp_witness))
    assert positions._max_dual_characterization(dm) == (
        len(dual_witness), frozenset(dual_witness))
    assert max_dual_oracle(dm)[0] == len(dual_witness)


@given(g=connected_graphs(2, 7), source=st.integers(0), copies=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_gp_search_with_a_planted_false_twin_class(g, source, copies):
    # Copy the open neighbourhood of one vertex onto 1-3 new vertices, so
    # they and it are false twins; both modes still return the first largest
    # set in combinations order that passes the definition-level predicate.
    n = g.n
    s = source % n
    nbrs = [u for u in range(n) if g.adj[s] >> u & 1]
    g = Graph.from_edges(n + copies, g.edges() + [(u, w) for w in range(n, n + copies)
                                                  for u in nbrs])
    planted = {s, *range(n, n + copies)}
    assert any(planted <= set(c) for c in false_twin_classes(g.adj))
    dm = all_pairs_distances(g)
    for dual, key in ((False, "gp"), (True, "gp_d")):
        first = first_largest(dm, key)
        assert positions._max_gp_search(dm, dual) == (len(first), frozenset(first))


def edgeless(n):
    return Graph(n, (0,) * n)


# Witnesses of the gp search in both modes on graphs made of large false-twin
# classes (equal open neighbourhoods), as for TWIN_HEAVY_WITNESSES.
FALSE_TWIN_WITNESSES = [
    (join(edgeless(3), edgeless(4)), [3, 4, 5, 6], []),
    (join(edgeless(2), edgeless(2)), [0, 1], [0, 2]),
    (family("star:5"), [1, 2, 3, 4, 5], [1, 2, 3, 4, 5]),
    (lexicographic_product(cycle(5), edgeless(3)).graph, [0, 1, 2, 6, 7, 8], []),
]


@pytest.mark.parametrize("g, gp_witness, dual_witness", FALSE_TWIN_WITNESSES,
                         ids=["K3,4", "K2,2", "star:5", "lex(cycle:5,3K1)"])
def test_gp_search_witnesses_on_false_twins(g, gp_witness, dual_witness):
    dm = all_pairs_distances(g)
    assert max_gp_oracle(dm) == (len(gp_witness), frozenset(gp_witness))
    assert positions._max_dual_characterization(dm) == (
        len(dual_witness), frozenset(dual_witness))
    assert max_dual_oracle(dm)[0] == len(dual_witness)
    if g.n <= 7:
        assert list(first_largest(dm, "gp")) == gp_witness
        assert list(first_largest(dm, "gp_d")) == dual_witness


# --------------------------------------------------------------------------
# known values


def test_known_values():
    assert invariant("gp", complete(5))[0] == 5
    assert invariant("gp", path(6))[0] == 2
    assert invariant("gp", cycle(4))[0] == 2
    assert invariant("gp", cycle(5))[0] == 3
    assert invariant("gp_t", path(4))[0] == 2
    assert invariant("gp_o", cycle(5))[0] == 2
    assert invariant("gp_d", complete(4))[0] == 4


def _nx_between(g, nx):
    """Strict interiors of the u,v-geodesics of a connected graph, for every
    pair u < v, read off networkx's shortest paths."""
    nxg = to_nx(g)
    return {
        (u, v): set().union(*(p[1:-1] for p in nx.all_shortest_paths(nxg, u, v)))
        for u, v in itertools.combinations(range(g.n), 2)
    }


def _brute_max(g, nx, inside):
    """Largest X for which no X vertex lies inside the geodesics of the
    pairs that ``inside(u in X, v in X)`` selects."""
    between = _nx_between(g, nx)
    best = 0
    for k in range(g.n + 1):
        for x in map(set, itertools.combinations(range(g.n), k)):
            if not any(between[u, v] & x for u, v in between
                       if inside(u in x, v in x)):
                best = k
    return best


def _brute_gp(g, nx):
    """Largest general position set by subset enumeration over networkx
    geodesics: no X vertex inside a geodesic joining two X vertices."""
    return _brute_max(g, nx, lambda a, b: a and b)


def _brute_gp_dual(g, nx):
    """Largest dual set by subset enumeration over networkx geodesics."""
    # dual: no X vertex inside a geodesic joining two X vertices (general
    # position) or two non-X vertices (convex complement)
    return _brute_max(g, nx, lambda a, b: a == b)


def test_cycle_plus_dual_matches_networkx_brute_force():
    # The catalog statement S17 claims 3; it holds only for n = 3 and n = 5.
    nx = pytest.importorskip("networkx")
    graphs = [family(f"cycle_plus:{n}") for n in range(3, 10)]
    expected = [3, 2, 3, 1, 1, 1, 1]
    assert [_brute_gp_dual(g, nx) for g in graphs] == expected
    dual = INVARIANTS["gp_d"]
    assert [dual.oracle(g)[0] for g in graphs] == expected
    assert [dual.characterization(g)[0] for g in graphs] == expected


def test_gp_oracle_matches_networkx_brute_force():
    # gp has one engine; subset enumeration over networkx geodesics is its
    # second, on seeded graphs and on fixed inputs with true twins
    nx = pytest.importorskip("networkx")
    rng = random.Random(2018)
    graphs = [
        lexicographic_product(path(3), complete(2)).graph,
        strong_product(complete(2), path(3)).graph,
        family("cycle_plus:5"),
        k4_with_pendant(),
    ] + [random_connected(rng.randint(2, 7), rng.getrandbits(21)) for _ in range(60)]
    for g in graphs:
        dm = all_pairs_distances(g)
        size, witness = max_gp_oracle(dm)
        assert size == len(witness) == _brute_gp(g, nx)
        assert accepts("gp", dm, witness)


@pytest.mark.parametrize("m, size, witness", [
    (7, 10, [0, 1, 11, 14, 16, 26, 29, 31, 41, 46]),
    (8, 9, [0, 2, 5, 16, 18, 21, 40, 42, 45]),
], ids=["C7xC7", "C8xC8"])
def test_gp_of_strong_squares_of_cycles(m, size, witness):
    # gp(C7 x C7) = 10 exceeds gp(C7)^2 = 9; C8 x C8 meets gp(C8)^2 = 9
    assert invariant("gp", cycle(m))[0] == 3
    g = strong_product(cycle(m), cycle(m)).graph
    dm = all_pairs_distances(g)
    assert max_gp_oracle(dm) == (size, frozenset(witness))
    assert accepts("gp", dm, witness)
    nx = pytest.importorskip("networkx")
    d = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
    assert not any(d[a][u] + d[u][b] == d[a][b]
                   for a, b in itertools.combinations(witness, 2)
                   for u in witness if u not in (a, b))


def test_connected_required():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    for key in INVARIANTS:
        with pytest.raises(DomainError):
            invariant(key, g)


# --------------------------------------------------------------------------
# bundles


def test_bundle_for_c5():
    b = compute_bundle(cycle(5), witnesses=True)
    assert b["n"] == 5 and b["diam"] == 2
    assert b["s"] == 0 and b["b"] == 5
    assert b["gp"] == 3 and b["gp_o"] == 2 and b["gp_t"] == 0
    assert b["alpha_km1"] == 2
    assert sorted(b["witnesses"]) == ["alpha", "gp", "gp_d", "gp_o", "gp_t", "omega"]
    assert len(b["witnesses"]["gp"]) == 3


def test_bundle_for_complete_graph():
    b = compute_bundle(complete(4))
    assert b["s"] == 4 and b["gp_t"] == 4 and b["gp_o"] == 4 and b["gp_d"] == 4
    assert b["alpha_km1"] is None  # diameter 1


def test_structure_bundle_for_disconnected():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    b = structure_bundle(g)
    assert b["connected"] is False and b["n"] == 5
    with pytest.raises(DomainError):
        compute_bundle(g)


# --------------------------------------------------------------------------
# the cross-check policy


def _off_by_one(fn):
    def wrong(dm):
        size, witness = fn(dm)
        return size + 1, witness
    return wrong


def _disagreement(key, g, first, second):
    return re.escape(f"{key} engine disagreement on {write_graph6(g)}: {first}, {second}")


def test_cross_check_catches_an_outer_disagreement(monkeypatch):
    c10 = cycle(10)
    monkeypatch.setattr(positions, "max_outer_oracle",
                        _off_by_one(positions.max_outer_oracle))
    expected = _disagreement("gp_o", c10, "characterization=2", "oracle=3")
    with pytest.raises(GenposError, match=expected):
        compute_bundle(c10)
    p3 = path(3)
    expected = _disagreement("gp_o", p3, "characterization=2", "oracle=3")
    with pytest.raises(GenposError, match=expected):
        check_statement("S12", (p3, path(4)))


def test_a_disagreement_is_a_verdict_in_s2_and_an_error_in_s4(monkeypatch):
    c10 = cycle(10)
    monkeypatch.setattr(positions, "max_outer_oracle",
                        _off_by_one(positions.max_outer_oracle))
    [v] = check_statement("S2", c10)
    assert (v.outcome, v.lhs, v.rhs) == ("fails", 3, 2)  # oracle, characterization
    expected = _disagreement("gp_o", c10, "characterization=2", "oracle=3")
    with pytest.raises(GenposError, match=expected):
        check_statement("S4", c10)


def test_a_disagreement_is_a_verdict_in_s1_and_an_error_in_s10(monkeypatch):
    c10, p2 = cycle(10), path(2)
    monkeypatch.setattr(positions, "max_total_oracle",
                        _off_by_one(positions.max_total_oracle))
    [v] = check_statement("S1", c10)
    assert (v.outcome, v.lhs, v.rhs) == ("fails", 1, 0)
    with pytest.raises(GenposError, match=_disagreement(
            "gp_t", c10, "characterization=0", "oracle=1")):
        invariant("gp_t", c10)
    prod = strong_product(c10, p2).graph
    with pytest.raises(GenposError, match=_disagreement(
            "gp_t", prod, "characterization=0", "oracle=1")):
        check_statement("S10", (c10, p2))


def test_a_disagreement_is_a_verdict_in_s14(monkeypatch):
    monkeypatch.setattr(positions, "max_outer_oracle",
                        _off_by_one(positions.max_outer_oracle))
    [v] = check_statement("S14")
    assert v.outcome == "fails"
    assert v.lhs == {"characterization": 5, "oracle": 6}
    assert v.counterexample == {"oracle": [6, 5]}
    square = strong_product(cycle(5), cycle(5)).graph
    with pytest.raises(GenposError, match=_disagreement(
            "gp_o", square, "characterization=5", "oracle=6")):
        invariant("gp_o", square)


def _one_short(fn):
    # a wrong size that still comes with a set of that size, for the
    # hereditary outer sets, so the witness check passes it
    def wrong(dm):
        size, witness = fn(dm)
        return size - 1, witness - {max(witness)}
    return wrong


def test_s2_above_the_outer_cap_runs_the_oracle_once(monkeypatch):
    c41 = cycle(INVARIANTS["gp_o"].cap + 1)
    calls = []
    monkeypatch.setattr(positions, "max_outer_oracle",
                        _counting(positions.max_outer_oracle, calls, "oracle"))
    [v] = check_statement("S2", c41)
    assert (v.outcome, v.lhs, v.rhs) == ("holds", 2, 2)
    assert calls == ["oracle"]
    clear_memos()
    monkeypatch.setattr(positions, "max_outer_oracle", _one_short(positions.max_outer_oracle))
    [v] = check_statement("S2", c41)
    assert (v.outcome, v.lhs, v.rhs) == ("fails", 1, 2)


def test_cross_check_raises_on_every_call(monkeypatch):
    # invariant is memoized, and raises a stored disagreement again each time
    c10 = cycle(10)
    for key, solver, values in [
        ("gp_o", "max_outer_oracle", ("characterization=2", "oracle=3")),
        ("gp_t", "max_total_oracle", ("characterization=0", "oracle=1")),
    ]:
        monkeypatch.setattr(positions, solver, _off_by_one(getattr(positions, solver)))
        expected = _disagreement(key, c10, *values)
        for _ in range(2):
            with pytest.raises(GenposError, match=expected):
                invariant(key, c10)


def _counting(engine, calls, name):
    def counted(g):
        calls.append(name)
        return engine(g)
    return counted


def test_invariant_is_memoized_until_the_memos_are_cleared(monkeypatch):
    calls = []
    entry = INVARIANTS["gp_o"]
    monkeypatch.setitem(INVARIANTS, "gp_o", entry._replace(
        characterization=_counting(entry.characterization, calls, "characterization"),
        oracle=_counting(entry.oracle, calls, "oracle")))
    first = invariant("gp_o", cycle(7))
    assert invariant("gp_o", cycle(7)) is first
    assert calls == ["characterization", "oracle"]
    clear_memos()
    assert invariant("gp_o", cycle(7)) == first
    assert len(calls) == 4


def test_gp_computes_once_for_both_engine_names(monkeypatch):
    calls = []
    monkeypatch.setattr(positions, "max_gp_oracle",
                        _counting(positions.max_gp_oracle, calls, "gp"))
    first = invariant("gp", cycle(7), engine="oracle")
    assert invariant("gp", cycle(7)) is first
    assert first == (3, frozenset({0, 1, 4}))
    assert calls == ["gp"]


def test_invariant_checks_every_witness(monkeypatch):
    # gp has no second engine: the witness check alone catches a wrong set
    monkeypatch.setattr(positions, "max_gp_oracle", lambda dm: (3, frozenset({0, 1, 2})))
    with pytest.raises(GenposError, match=re.escape("gp characterization witness [0, 1, 2]")):
        invariant("gp", path(4))
    monkeypatch.setattr(positions, "max_gp_oracle", lambda dm: (3, frozenset({0, 3})))
    with pytest.raises(GenposError, match="is not a gp set of size 3"):
        invariant("gp", path(5))
    # above the gp_d cap only the requested engine runs, and its witness is
    # still tested: the complement of one vertex of C17 is not convex
    c17 = cycle(INVARIANTS["gp_d"].cap + 1)
    monkeypatch.setattr(positions, "_max_dual_characterization",
                        lambda dm: (1, frozenset({0})))
    with pytest.raises(GenposError, match=re.escape(f"on {write_graph6(c17)} is not a gp_d set")):
        invariant("gp_d", c17)


def test_cross_check_catches_a_dual_disagreement_in_s16(monkeypatch):
    prod = strong_product(path(2), path(3)).graph
    size = max_dual_oracle(all_pairs_distances(prod))[0]
    monkeypatch.setattr(positions, "_max_dual_characterization",
                        _off_by_one(positions._max_dual_characterization))
    expected = _disagreement("gp_d", prod, f"characterization={size + 1}", f"oracle={size}")
    with pytest.raises(GenposError, match=expected):
        check_statement("S16", (path(2), path(3)))


def test_cross_check_stops_above_its_cap(monkeypatch):
    cap = INVARIANTS["gp_d"].cap
    monkeypatch.setattr(positions, "max_dual_oracle", _off_by_one(positions.max_dual_oracle))
    with pytest.raises(GenposError, match="gp_d"):
        invariant("gp_d", cycle(cap))
    assert invariant("gp_d", cycle(cap + 1)) == INVARIANTS["gp_d"].characterization(
        cycle(cap + 1))
