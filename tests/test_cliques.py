"""Exact clique/independence solvers against exhaustive subset search."""

from itertools import combinations

import pytest
from hypothesis import given, settings

from genpos.cliques import alpha_k, independence_number, max_clique
from genpos.errors import DomainError
from genpos.graphs import Graph, all_pairs_distances, complement, is_connected
from genpos.products import strong_product
from graph_builders import family, graphs, random_graph


def brute_clique(g):
    best = 0
    for r in range(g.n, 0, -1):
        for c in combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in combinations(c, 2)):
                return r
    return best


@given(g=graphs(1, 9))
@settings(max_examples=120, deadline=None)
def test_max_clique_matches_brute_force(g):
    size, witness = max_clique(g)
    assert size == brute_clique(g)
    assert len(witness) == size
    assert all(g.has_edge(u, v) for u, v in combinations(sorted(witness), 2))


@given(g=graphs(1, 9))
@settings(max_examples=60, deadline=None)
def test_independence_is_clique_of_complement(g):
    size, witness = independence_number(g)
    assert all(not g.has_edge(u, v) for u, v in combinations(sorted(witness), 2))
    assert size + 0 == brute_clique(
        Graph.from_edges(g.n, [(u, v) for u in range(g.n)
                               for v in range(u + 1, g.n)
                               if not g.has_edge(u, v)])
    )


@pytest.mark.parametrize("n,p_milli", [(10, 300), (14, 500), (18, 700), (22, 400),
                                       (26, 600), (30, 250), (30, 500)])
def test_clique_and_independence_match_networkx(n, p_milli):
    nx = pytest.importorskip("networkx")
    G = nx.gnp_random_graph(n, p_milli / 1000, seed=n * 1000 + p_milli)
    g = Graph.from_edges(n, list(G.edges()))
    omega, clique = max_clique(g)
    alpha, independent = independence_number(g)
    assert omega == nx.max_weight_clique(G, weight=None)[1]
    assert alpha == nx.max_weight_clique(nx.complement(G), weight=None)[1]
    assert len(clique) == omega
    assert all(g.has_edge(u, v) for u, v in combinations(sorted(clique), 2))
    assert len(independent) == alpha
    assert all(not g.has_edge(u, v) for u, v in combinations(sorted(independent), 2))


# Witnesses recorded before the search kept its colour classes as masks, on
# graphs with several maximum cliques (and independent and k-distant sets),
# so a change of branching order shows: the search takes the highest colour
# class first and the highest label first inside a class.
RECORDED_WITNESSES = [
    # graph, max_clique, independence_number, {k: alpha_k}
    (complement(family("cycle:7")), [2, 4, 6], [5, 6], {1: [5, 6]}),
    (strong_product(family("cycle:5"), family("complete:2")).graph,
     [6, 7, 8, 9], [5, 9], {1: [5, 9]}),
    (random_graph(8, 0b101101110011101011), [0, 1, 4, 5], [3, 5, 6, 7], {}),
    (family("cycle:9"), [7, 8], [2, 4, 6, 8], {1: [2, 4, 6, 8], 2: [2, 5, 8], 3: [4, 8]}),
    (strong_product(family("path:4"), family("path:3")).graph,
     [7, 8, 10, 11], [3, 5, 9, 11], {1: [3, 5, 9, 11], 2: [2, 11]}),
]


def test_max_clique_deterministic_witness():
    for g, clique, independent, distant in RECORDED_WITNESSES:
        assert max_clique(g) == (len(clique), frozenset(clique))
        assert independence_number(g) == (len(independent), frozenset(independent))
        for k, witness in distant.items():
            assert alpha_k(g, k) == (len(witness), frozenset(witness))


@given(g=graphs(7, 7))
@settings(max_examples=40, deadline=None)
def test_alpha_k_chain_is_nonincreasing(g):
    if not is_connected(g):
        return
    values = [alpha_k(g, k)[0] for k in range(1, 7)]
    assert values == sorted(values, reverse=True)
    assert values[0] == independence_number(g)[0]


@given(g=graphs(1, 8))
@settings(max_examples=60, deadline=None)
def test_alpha_k_matches_brute_force(g):
    if not is_connected(g):
        return
    dist = all_pairs_distances(g).dist
    diam = max(max(row) for row in dist)
    for k in range(1, diam + 2):
        size, witness = alpha_k(g, k)
        best = max(r for r in range(1, g.n + 1) for c in combinations(range(g.n), r)
                   if all(dist[u][v] > k for u, v in combinations(c, 2)))
        assert size == best == len(witness)
        assert all(dist[u][v] > k for u, v in combinations(sorted(witness), 2))


def test_alpha_k_on_paths():
    p6 = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    assert alpha_k(p6, 1)[0] == 3
    assert alpha_k(p6, 2)[0] == 2
    assert alpha_k(p6, 5)[0] == 1


def test_alpha_k_domain_errors():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(DomainError):
        alpha_k(p3, 0)
    disconnected = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(DomainError):
        alpha_k(disconnected, 1)
