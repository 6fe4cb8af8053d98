"""Product constructions: distance formula, neighborhoods, codec, layers."""

import pytest
from hypothesis import given, settings

from genpos.errors import CapacityError
from genpos.graphs import (
    all_pairs_distances,
    is_connected,
)
from genpos.products import (
    lexicographic_product,
    strong_product,
)
from genpos.statements import brute_force_isomorphic
from graph_builders import connected_graphs, cycle, path


def test_strong_product_of_edges_is_k4():
    p = strong_product(path(2), path(2))
    assert p.graph.num_edges() == 6


@given(g=connected_graphs(2, 4), h=connected_graphs(2, 5))
@settings(max_examples=60, deadline=None)
def test_strong_distance_is_max_of_factor_distances(g, h):
    p = strong_product(g, h)
    dm = all_pairs_distances(p.graph)
    dg = all_pairs_distances(g)
    dh = all_pairs_distances(h)
    for x in range(p.graph.n):
        a, b = p.decode(x)
        for y in range(p.graph.n):
            c, d = p.decode(y)
            assert dm.dist[x][y] == max(dg.dist[a][c], dh.dist[b][d])


@given(g=connected_graphs(2, 4), h=connected_graphs(2, 4))
@settings(max_examples=60, deadline=None)
def test_strong_closed_neighborhoods_multiply(g, h):
    p = strong_product(g, h)
    for x in range(p.graph.n):
        a, b = p.decode(x)
        expected = {
            p.encode(a2, b2)
            for a2 in range(g.n) if g.closed_neighborhood(a) >> a2 & 1
            for b2 in range(h.n) if h.closed_neighborhood(b) >> b2 & 1
        }
        got = {v for v in range(p.graph.n)
               if p.graph.closed_neighborhood(x) >> v & 1}
        assert got == expected


def test_lex_adjacency_definition():
    p = lexicographic_product(path(3), path(2))
    g6 = p.graph
    # any G-edge links whole layers
    assert g6.has_edge(p.encode(0, 0), p.encode(1, 1))
    assert g6.has_edge(p.encode(0, 1), p.encode(1, 0))
    # within a layer, only H-edges
    assert g6.has_edge(p.encode(0, 0), p.encode(0, 1))
    # no edge between non-adjacent G-coordinates
    assert not g6.has_edge(p.encode(0, 0), p.encode(2, 1))


@given(g=connected_graphs(2, 4), h=connected_graphs(2, 4))
@settings(max_examples=40, deadline=None)
def test_strong_product_commutes_up_to_codec_swap(g, h):
    p = strong_product(g, h)
    q = strong_product(h, g)
    for x in range(p.graph.n):
        a, b = p.decode(x)
        for y in range(p.graph.n):
            c, d = p.decode(y)
            assert p.graph.has_edge(x, y) == q.graph.has_edge(
                q.encode(b, a), q.encode(d, c)
            ) or x == y


def test_lex_product_is_not_commutative():
    a = lexicographic_product(path(3), path(2)).graph
    b = lexicographic_product(path(2), path(3)).graph
    assert not brute_force_isomorphic(a, b)


def test_products_of_connected_factors_are_connected():
    for build in (strong_product, lexicographic_product):
        p = build(cycle(4), path(3))
        assert is_connected(p.graph)


def test_codec_round_trip_and_layers():
    p = strong_product(path(3), path(4))
    for x in range(12):
        assert p.encode(*p.decode(x)) == x


def test_vertex_cap():
    with pytest.raises(CapacityError):
        strong_product(path(10), path(10), cap=50)
    with pytest.raises(CapacityError):
        lexicographic_product(path(10), path(10), cap=50)
