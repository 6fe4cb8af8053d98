"""Boundary, strong resolving graphs, auxiliary graphs, the strong-product MMD table."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from genpos.cliques import max_clique
from genpos.errors import DomainError
from genpos.graphs import (
    Graph,
    all_pairs_distances,
    is_connected,
    true_twin_pairs,
)
from genpos.products import strong_product
from genpos.resolving import (
    boundary,
    g2bar,
    prune_isolated,
    strong_product_mmd,
    strong_resolving_graph,
    tf_boundary_and_srs,
)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_connected(n, bits):
    pairs = [(u, v) for v in range(n) for u in range(v)]
    bits %= 1 << len(pairs)
    edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
    g = Graph.from_edges(n, edges)
    if is_connected(g):
        return g
    # graft a spanning path so every sampled graph is usable
    return Graph.from_edges(n, edges + [(i, i + 1) for i in range(n - 1)])


def test_mmd_table_known_values():
    # A leaf is maximally distant from its neighbour but not vice versa, so on
    # P3 only the two leaves are an MMD pair.
    assert all_pairs_distances(path(3)).mmd == [0b100, 0, 0b001]
    # C4: each vertex and its antipode.
    assert all_pairs_distances(cycle(4)).mmd == [0b0100, 0b1000, 0b0001, 0b0010]


def test_maximal_distance_needs_connected_graph():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(DomainError, match="maximal distance requires a connected graph"):
        all_pairs_distances(g).mmd


def test_five_cases_need_connected_factors():
    split = Graph.from_edges(3, [(0, 1)])
    for g, h in ((split, path(3)), (path(3), split)):
        with pytest.raises(DomainError, match="mmd product cases requires a connected graph"):
            strong_product_mmd(g, h)


def test_boundary_known_values():
    assert len(boundary(cycle(5))) == 5
    assert boundary(path(4)) == frozenset({0, 3})
    assert len(boundary(complete(4))) == 4
    assert len(boundary(Graph(1, (0,)))) == 0


@given(n=st.integers(2, 7), bits=st.integers(0))
@settings(max_examples=60, deadline=None)
def test_true_twins_are_mmd(n, bits):
    g = random_connected(n, bits)
    sr = strong_resolving_graph(g)
    for u, v in true_twin_pairs(g):
        assert sr.has_edge(u, v)


def test_sr_graph_of_c4_is_perfect_matching():
    sr = strong_resolving_graph(cycle(4))
    pruned, _ = prune_isolated(sr)
    assert pruned is not None
    assert sr.num_edges() == 2
    assert pruned.num_edges() == 2
    assert all(pruned.degree(v) == 1 for v in range(pruned.n))


def test_sr_graph_of_k1_has_no_pruned_form():
    sr = strong_resolving_graph(Graph(1, (0,)))
    assert prune_isolated(sr) == (None, ())


@given(n=st.integers(2, 7), bits=st.integers(0))
@settings(max_examples=60, deadline=None)
def test_pruning_preserves_clique_number(n, bits):
    g = random_connected(n, bits)
    sr = strong_resolving_graph(g)
    pruned, _ = prune_isolated(sr)
    assert pruned is not None
    assert max_clique(sr)[0] == max_clique(pruned)[0]


def test_g2bar_examples():
    # K4: all pairs are true twins
    assert g2bar(complete(4)).num_edges() == 6
    # C4: the two diagonals
    assert g2bar(cycle(4)).num_edges() == 2
    # P3: the single distance-2 pair
    assert g2bar(path(3)).num_edges() == 1


@given(n=st.integers(1, 8), bits=st.integers(0))
@settings(max_examples=100, deadline=None)
def test_g2bar_against_definition(n, bits):
    g = random_connected(n, bits)
    dist = all_pairs_distances(g).dist
    expected = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if dist[u][v] >= 2 or g.closed_neighborhood(u) == g.closed_neighborhood(v)
    ]
    assert g2bar(g).edges() == expected


def test_prune_isolated():
    g = Graph.from_edges(4, [(1, 2)])
    pruned, labels = prune_isolated(g)
    assert pruned is not None and pruned.n == 2 and labels == (1, 2)
    empty = Graph(3, (0, 0, 0))
    assert prune_isolated(empty) == (None, ())


def test_tf_boundary_examples():
    srs, labels = tf_boundary_and_srs(cycle(5))
    assert frozenset(labels) == frozenset(range(5))
    assert srs.num_edges() == 5
    srs, labels = tf_boundary_and_srs(path(4))
    assert sorted(labels) == [0, 3]
    assert srs.num_edges() == 1
    with pytest.raises(DomainError):
        tf_boundary_and_srs(complete(3))


@given(n=st.integers(3, 8), bits=st.integers(0))
@settings(max_examples=100, deadline=None)
@example(n=4, bits=0b011111)  # K4 minus an edge: MMD true twins and false twins
def test_srs_edges_are_the_non_twin_mmd_pairs(n, bits):
    g = random_connected(n, bits)
    assume(g.num_edges() < n * (n - 1) // 2)
    d = all_pairs_distances(g).dist

    def mmd(u, v):
        return (all(d[w][v] <= d[u][v] for w in range(n) if g.has_edge(u, w))
                and all(d[u][w] <= d[u][v] for w in range(n) if g.has_edge(v, w)))

    twins = true_twin_pairs(g)
    expected = [(u, v) for u in range(n) for v in range(u + 1, n)
                if mmd(u, v) and (u, v) not in twins]
    srs, labels = tf_boundary_and_srs(g)
    assert sorted(tuple(sorted((labels[i], labels[j]))) for i, j in srs.edges()) == expected
    assert sorted(labels) == sorted({v for pair in expected for v in pair})


@given(ng=st.integers(1, 4), nh=st.integers(1, 4),
       bg=st.integers(0), bh=st.integers(0))
@settings(max_examples=60, deadline=None)
@example(ng=1, nh=3, bg=0, bh=3)
@example(ng=4, nh=1, bg=0b111000, bh=0)
def test_five_cases_match_direct_product_mmd(ng, nh, bg, bh):
    g = random_connected(ng, bg)
    h = random_connected(nh, bh)
    direct = all_pairs_distances(strong_product(g, h).graph).mmd
    assert strong_product_mmd(g, h) == direct
