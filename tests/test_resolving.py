"""Boundary, strong resolving graphs, auxiliary graphs, the strong-product MMD table."""

import pytest
from hypothesis import assume, example, given, settings

from genpos.cliques import alpha_k, max_clique
from genpos.errors import DomainError
from genpos.graphs import (
    Graph,
    all_pairs_distances,
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
from graph_builders import complete, connected_graphs, cycle, path, random_connected


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


@pytest.mark.parametrize("op, name", [
    (boundary, "boundary"),
    (strong_resolving_graph, "strong_resolving_graph"),
    (g2bar, "g2bar"),
    (tf_boundary_and_srs, "tf_boundary"),
    (lambda g: alpha_k(g, 1), "alpha_k"),
], ids=["boundary", "strong_resolving_graph", "g2bar", "tf_boundary_and_srs", "alpha_k"])
def test_domain_error_names_the_operation(op, name):
    with pytest.raises(DomainError, match=f"^{name} requires a connected graph$"):
        op(Graph.from_edges(3, [(0, 1)]))


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


@given(g=connected_graphs(2, 7))
@settings(max_examples=60, deadline=None)
def test_true_twins_are_mmd(g):
    sr = strong_resolving_graph(g)
    for u, v in true_twin_pairs(g):
        assert sr.has_edge(u, v)


def test_sr_graph_of_c4_is_perfect_matching():
    sr = strong_resolving_graph(cycle(4))
    pruned = prune_isolated(sr)
    assert sr.num_edges() == 2
    assert pruned.num_edges() == 2
    assert all(pruned.degree(v) == 1 for v in range(pruned.n))


def test_sr_graph_of_k1_has_no_pruned_form():
    sr = strong_resolving_graph(Graph(1, (0,)))
    with pytest.raises(DomainError):
        prune_isolated(sr)


@given(g=connected_graphs(2, 7))
@settings(max_examples=60, deadline=None)
def test_pruning_preserves_clique_number(g):
    sr = strong_resolving_graph(g)
    assert max_clique(sr)[0] == max_clique(prune_isolated(sr))[0]


def test_g2bar_examples():
    # K4: all pairs are true twins
    assert g2bar(complete(4)).num_edges() == 6
    # C4: the two diagonals
    assert g2bar(cycle(4)).num_edges() == 2
    # P3: the single distance-2 pair
    assert g2bar(path(3)).num_edges() == 1


@given(g=connected_graphs(1, 8))
@settings(max_examples=100, deadline=None)
def test_g2bar_against_definition(g):
    dist = all_pairs_distances(g).dist
    expected = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if dist[u][v] >= 2 or g.closed_neighborhood(u) == g.closed_neighborhood(v)
    ]
    assert g2bar(g).edges() == expected


def test_prune_isolated():
    g = Graph.from_edges(4, [(1, 2)])
    assert prune_isolated(g) == Graph.from_edges(2, [(0, 1)])
    with pytest.raises(DomainError):
        prune_isolated(Graph(3, (0, 0, 0)))
    whole = path(4)  # nothing to prune: the graph itself comes back
    assert prune_isolated(whole) is whole


def test_tf_boundary_examples():
    srs, labels = tf_boundary_and_srs(cycle(5))
    assert frozenset(labels) == frozenset(range(5))
    assert srs.num_edges() == 5
    srs, labels = tf_boundary_and_srs(path(4))
    assert sorted(labels) == [0, 3]
    assert srs.num_edges() == 1
    with pytest.raises(DomainError):
        tf_boundary_and_srs(complete(3))


@given(g=connected_graphs(3, 8))
@settings(max_examples=100, deadline=None)
@example(g=random_connected(4, 0b011111))  # K4 minus an edge: MMD true twins and false twins
def test_srs_edges_are_the_non_twin_mmd_pairs(g):
    assume(g.num_edges() < g.n * (g.n - 1) // 2)
    d = all_pairs_distances(g).dist

    def mmd(u, v):
        return (all(d[w][v] <= d[u][v] for w in range(g.n) if g.has_edge(u, w))
                and all(d[u][w] <= d[u][v] for w in range(g.n) if g.has_edge(v, w)))

    twins = true_twin_pairs(g)
    expected = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                if mmd(u, v) and (u, v) not in twins]
    srs, labels = tf_boundary_and_srs(g)
    assert sorted(tuple(sorted((labels[i], labels[j]))) for i, j in srs.edges()) == expected
    assert sorted(labels) == sorted({v for pair in expected for v in pair})


@given(g=connected_graphs(1, 4), h=connected_graphs(1, 4))
@settings(max_examples=60, deadline=None)
@example(g=random_connected(1, 0), h=random_connected(3, 3))
@example(g=random_connected(4, 0b111000), h=random_connected(1, 0))
def test_five_cases_match_direct_product_mmd(g, h):
    direct = all_pairs_distances(strong_product(g, h).graph).mmd
    assert strong_product_mmd(g, h) == direct
