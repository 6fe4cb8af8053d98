"""Core graph structure: construction, distances, blockers, recognizers."""

import copy
import functools
import math
import operator
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos.errors import DomainError
from genpos.graphs import (
    Graph,
    all_pairs_distances,
    basic_counts,
    complement,
    diameter,
    disjoint_union,
    distances,
    from_mask,
    induced_subgraph,
    is_block_graph,
    is_complete,
    is_connected,
    join,
    remove_true_twin_edges,
    simplicial_vertices,
    to_mask,
    transpose,
    true_twin_pairs,
    universal_vertices,
)
from genpos.products import strong_product
from graph_builders import complete, connected_graphs, cycle, graphs, path, random_graph, to_nx


def test_construction_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))  # wrong row count
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b00))  # self loop
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError, match=r"adjacency not symmetric at \(1,0\)"):
        Graph(4, (0, 0b0001, 0b1000, 0))  # the first asymmetric arc in row order
    with pytest.raises(ValueError, match="outside 0..1"):
        Graph(2, (0b100, 0b00))  # names vertex n
    with pytest.raises(ValueError, match="outside 0..1"):
        Graph(2, (-2, 0b00))  # negative row
    with pytest.raises(ValueError):
        Graph(0, ())


def test_from_edges_rejects_endpoints_outside_the_order():
    with pytest.raises(ValueError, match=r"edge \(0,3\) references vertices outside 0..2"):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError, match=r"edge \(-1,2\) references vertices outside 0..2"):
        Graph.from_edges(3, [(0, 1), (-1, 2)])


def test_from_edges_rejects_a_self_loop():
    with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
        Graph.from_edges(3, [(1, 1)])


def test_graph_built_from_a_list_hashes_like_a_tuple():
    from genpos.positions import invariant

    listed, tupled = Graph(3, [0b110, 0b101, 0b011]), Graph(3, (0b110, 0b101, 0b011))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert isinstance(listed.adj, tuple)
    assert invariant("gp_o", listed) == invariant("gp_o", tupled) == (3, frozenset({0, 1, 2}))


def test_graph_hashes_its_order_and_rows():
    # hash((n, adj)) on both sides of the transpose bound, kept by a pickle
    # round trip and by shallow and deep copies
    for g in (path(5), strong_product(cycle(5), path(6)).graph, path(300)):
        assert hash(g) == hash((g.n, g.adj))
        for dup in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert type(dup) is Graph and dup == g and hash(dup) == hash((g.n, g.adj))


def test_graph_is_immutable_and_equals_only_graphs():
    g = Graph(2, (2, 1))
    for name in ("n", "adj", "_hash"):
        with pytest.raises(AttributeError):
            setattr(g, name, getattr(g, name))
        with pytest.raises(AttributeError):
            delattr(g, name)
    with pytest.raises(AttributeError):
        g.label = "K2"  # no instance dict
    assert (g.n, g.adj) == (2, (2, 1))
    assert g != (2, (2, 1)) and g == Graph(n=2, adj=[2, 1])
    assert repr(g) == "Graph(n=2, adj=(2, 1))"


def test_unpickling_validates_the_rows():
    # protocol 0 by hand: Graph(2, (2, row)) through GLOBAL, two TUPLEs and REDUCE
    def payload(row):
        return b"cgenpos.graphs\nGraph\n(I2\n(I2\nI%d\nttR." % row

    assert pickle.loads(payload(1)) == Graph(2, (2, 1))
    # what pickle writes for a graph reduces to the same constructor call
    assert Graph(2, (2, 1)).__reduce_ex__(pickle.HIGHEST_PROTOCOL) == (Graph, (2, (2, 1)))
    with pytest.raises(ValueError, match=r"adjacency not symmetric at \(0,1\)"):
        pickle.loads(payload(0))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 100, 129, 256])
def test_transpose_matches_the_per_bit_definition(n):
    rnd = random.Random(n)
    for rows in ([rnd.getrandbits(n) for _ in range(n)],
                 [1 << rnd.randrange(n) for _ in range(n)],
                 [(1 << n) - 1] * n):
        assert transpose(rows) == [sum((rows[i] >> j & 1) << i for i in range(n))
                                   for j in range(n)]


def first_adjacency_fault(n, rows):
    """The message of the first fault of ``Graph(n, rows)`` in row order, read
    bit by bit: a row outside the order or a self-loop before any asymmetric
    arc; None for a valid graph."""
    for i, row in enumerate(rows):
        if row >> n:
            return f"adjacency row {i} references vertices outside 0..{n - 1}"
        if row >> i & 1:
            return f"self-loop at vertex {i}"
    for i, row in enumerate(rows):
        for j in range(n):
            if row >> j & 1 and not rows[j] >> i & 1:
                return f"adjacency not symmetric at ({i},{j})"
    return None


@st.composite
def adjacency_rows(draw, flip):
    """Symmetric rows of order 1..300, about half drawn from 240..300 across
    the transpose bound, with one bit flipped when ``flip``: an arc's reverse
    missing, a self-loop, or vertex n named."""
    n = draw(st.one_of(st.integers(1, 300), st.integers(240, 300)))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from([0.0, 2 / n, 0.5, 1.0]))
    rows = [0] * n
    for v in range(n):
        for u in range(v):
            if rnd.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    if flip:
        rows[draw(st.integers(0, n - 1))] ^= 1 << draw(st.integers(0, n))
    return n, rows


@pytest.mark.parametrize("flip", [False, True], ids=["symmetric", "one-flip"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_graph_validation_matches_the_row_major_scan(flip, data):
    n, rows = data.draw(adjacency_rows(flip))
    fault = first_adjacency_fault(n, rows)
    if fault is None:
        assert Graph(n, rows).adj == tuple(rows)
    else:
        with pytest.raises(ValueError) as err:
            Graph(n, rows)
        assert str(err.value) == fault


def test_mask_round_trip():
    assert to_mask([0, 2, 5]) == 0b100101
    assert sorted(from_mask(0b100101)) == [0, 2, 5]


def floyd_warshall(g):
    inf = math.inf
    d = [[0 if i == j else (1 if g.has_edge(i, j) else inf) for j in range(g.n)]
         for i in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


@given(g=graphs(2, 8))
@settings(max_examples=120, deadline=None)
def test_bfs_matches_floyd_warshall(g):
    dm = all_pairs_distances(g)
    assert dm.dist == floyd_warshall(g)


@pytest.mark.parametrize("n", range(9, 41))
def test_bfs_matches_floyd_warshall_across_byte_boundaries(n):
    # sparse and long graphs, so frontiers straddle bytes; disconnected ones too
    rnd = random.Random(n)
    sparse = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                                  if rnd.random() < 1.5 / n])
    for g in (sparse, cycle(n), disjoint_union([path(n - 5), cycle(5)])):
        dm = all_pairs_distances(g)
        assert dm.dist == floyd_warshall(g)
        assert dm.layers == [
            [to_mask(v for v in range(n) if row[v] == d) for d in range(len(rings))]
            for row, rings in zip(dm.dist, dm.layers)]
        assert_rowunion_matches_definition(g)


def test_blockers_are_strict_geodesic_interiors():
    p4 = path(4)
    dm = all_pairs_distances(p4)
    assert dm.blockers[0][3] == to_mask([1, 2])
    assert dm.blockers[0][1] == 0
    c5 = all_pairs_distances(cycle(5))
    # two geodesics between antipodal-ish vertices on C5 never exist; d=2 has
    # exactly one midpoint
    assert c5.blockers[0][2] == to_mask([1])


def test_blockers_unions():
    dm = all_pairs_distances(path(3))
    assert dm.rowunion[0] == to_mask([1])
    assert dm.all_blockers_union() == to_mask([1])
    k1 = all_pairs_distances(Graph(1, (0,)))
    assert k1.rowunion == [0] and k1.all_blockers_union() == 0
    split = all_pairs_distances(disjoint_union([path(3), path(2)]))
    assert split.rowunion == [to_mask([1]), 0, to_mask([1]), 0, 0]
    assert split.all_blockers_union() == to_mask([1])


def test_rowunion_is_the_union_of_blocker_rows_exhaustive():
    # every labeled graph with n <= 6, connected or not
    for n in range(1, 7):
        for bits in range(1 << n * (n - 1) // 2):
            dm = all_pairs_distances(random_graph(n, bits))
            assert dm.rowunion == [functools.reduce(operator.or_, row)
                                   for row in dm.blockers], (n, bits)


def assert_rowunion_matches_definition(g):
    # w is in rowunion[u] exactly when w lies strictly inside a u,v-geodesic
    dm = all_pairs_distances(g)
    d = dm.dist
    for u in range(g.n):
        assert dm.rowunion[u] == to_mask(
            w for w in range(g.n) if w != u and any(
                v not in (u, w) and d[u][v] != math.inf and d[u][w] + d[w][v] == d[u][v]
                for v in range(g.n)))


@given(g=graphs(1, 10))
@settings(max_examples=80, deadline=None)
def test_rowunion_against_definition(g):
    # no spanning path is grafted: disconnected graphs are drawn too
    assert_rowunion_matches_definition(g)


def assert_blockers_match_definition(g):
    dm = all_pairs_distances(g)
    for u in range(g.n):
        for v in range(g.n):
            if u == v or dm.dist[u][v] == math.inf:
                continue
            expected = to_mask(
                w for w in range(g.n)
                if w not in (u, v)
                and dm.dist[u][w] + dm.dist[w][v] == dm.dist[u][v]
            )
            assert dm.blockers[u][v] == expected


@given(g=graphs(2, 7))
@settings(max_examples=80, deadline=None)
def test_blockers_against_definition(g):
    assert_blockers_match_definition(g)


LONG_LAYERS = pytest.mark.parametrize(
    "g", [path(12), strong_product(cycle(5), path(6)).graph],
    ids=["path:12", "strong(cycle:5,path:6)"])


@LONG_LAYERS
def test_blockers_against_definition_on_long_layers(g):
    assert_blockers_match_definition(g)


@LONG_LAYERS
def test_rowunion_against_definition_on_long_layers(g):
    assert_rowunion_matches_definition(g)


def assert_shadow_is_blocker_transpose(g):
    # w is in shadow[u][v] exactly when v lies strictly inside a u,w-geodesic
    dm = all_pairs_distances(g)
    for u in range(g.n):
        for v in range(g.n):
            assert dm.shadow[u][v] == to_mask(
                w for w in range(g.n) if dm.blockers[u][w] >> v & 1)


@given(g=graphs(1, 10))
@settings(max_examples=80, deadline=None)
def test_shadow_against_definition(g):
    # no spanning path is grafted: disconnected graphs are drawn too
    assert_shadow_is_blocker_transpose(g)


@LONG_LAYERS
def test_shadow_against_definition_on_long_layers(g):
    assert_shadow_is_blocker_transpose(g)


@given(g=connected_graphs(1, 7))
@settings(max_examples=80, deadline=None)
def test_mmd_against_definition(g):
    dm = all_pairs_distances(g)

    def maximally_distant(u, v):
        """No neighbour of u is farther from v than u is."""
        return all(dm.dist[v][w] <= dm.dist[u][v] for w in range(g.n) if g.adj[u] >> w & 1)

    for u in range(g.n):
        expected = to_mask(
            v for v in range(g.n)
            if v != u and maximally_distant(u, v) and maximally_distant(v, u)
        )
        assert dm.mmd[u] == expected


def test_connectivity_and_diameter():
    assert is_connected(path(5))
    assert not is_connected(disjoint_union([path(2), path(2)]))
    assert diameter(path(5)) == 4
    assert diameter(cycle(6)) == 3
    assert diameter(complete(4)) == 1


def test_distances_memo_is_keyed_by_equal_graphs():
    g = path(4)
    twin = Graph(g.n, tuple(g.adj))
    assert twin == g and twin is not g
    assert distances(twin) is distances(g)
    dm = distances(g)
    assert dm.dist == all_pairs_distances(g).dist
    assert dm.connected and dm.diameter == 3
    split = distances(disjoint_union([path(2), path(2)]))
    assert not split.connected and split.diameter == math.inf


def test_simplicial_vertices():
    assert sorted(simplicial_vertices(path(4))) == [0, 3]
    assert sorted(simplicial_vertices(complete(5))) == [0, 1, 2, 3, 4]
    assert simplicial_vertices(cycle(5)) == frozenset()


def test_true_twins_and_removal():
    k4 = complete(4)
    assert len(true_twin_pairs(k4)) == 6
    assert remove_true_twin_edges(k4).num_edges() == 0
    p4 = path(4)
    assert true_twin_pairs(p4) == frozenset()
    assert remove_true_twin_edges(p4) == p4


@given(g=graphs(1, 8))
@settings(max_examples=80, deadline=None)
def test_true_twin_pairs_against_definition(g):
    assert true_twin_pairs(g) == {
        (u, v) for u in range(g.n) for v in range(u + 1, g.n)
        if g.closed_neighborhood(u) == g.closed_neighborhood(v)
    }


def test_join_and_union():
    k1 = Graph(1, (0,))
    wheelish = join(k1, cycle(4))
    assert wheelish.n == 5
    assert sorted(universal_vertices(wheelish)) == [0]
    two = disjoint_union([path(2), path(3)])
    assert two.n == 5
    assert two.has_edge(0, 1) and two.has_edge(2, 3) and not two.has_edge(1, 2)


def test_induced_subgraph_labels():
    sub, labels = induced_subgraph(path(5), [1, 2, 4])
    assert labels == (1, 2, 4)
    assert sub.has_edge(0, 1) and not sub.has_edge(1, 2)


def test_complement():
    assert complement(complete(4)).num_edges() == 0
    assert complement(path(3)).num_edges() == 1
    assert complement(path(4)).num_edges() == 3


def test_block_graph_recognition():
    assert is_block_graph(path(6))
    assert is_block_graph(complete(5))
    # two triangles sharing a vertex
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert is_block_graph(bowtie)
    assert not is_block_graph(cycle(4))
    assert not is_block_graph(cycle(5))
    assert is_block_graph(Graph(1, (0,)))
    assert not is_block_graph(Graph.from_edges(3, [(0, 1)]))


def nx_is_block_graph(nx, g):
    """Connected, and each biconnected block (an induced subgraph) has all
    k(k-1)/2 edges on its k vertices."""
    G = to_nx(g)
    if not nx.is_connected(G):
        return False
    for edges in nx.biconnected_component_edges(G):
        k = len({v for e in edges for v in e})
        if len(edges) != k * (k - 1) // 2:
            return False
    return True


def test_block_graph_matches_networkx_exhaustive():
    nx = pytest.importorskip("networkx")
    from genpos.statements import enumerate_connected

    for n in range(1, 7):
        for g in enumerate_connected(n):
            assert is_block_graph(g) == nx_is_block_graph(nx, g), g.adj


@given(g=graphs(1, 12))
@settings(max_examples=200, deadline=None)
def test_block_graph_matches_networkx_random(g):
    nx = pytest.importorskip("networkx")
    assert is_block_graph(g) == nx_is_block_graph(nx, g)


def test_basic_counts():
    n, leaves, delta = basic_counts(path(4))
    assert (n, leaves, delta) == (4, 2, 2)
    assert is_complete(complete(3)) and not is_complete(path(3))


def test_require_connected_error():
    from genpos.graphs import require_connected

    with pytest.raises(DomainError):
        require_connected(disjoint_union([path(2), path(2)]), "test")
