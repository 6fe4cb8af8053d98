"""Graph builders and Hypothesis graph strategies shared by the test modules."""

from math import comb

from hypothesis import strategies as st

from genpos.families import generate, parse_family
from genpos.graphs import Graph, is_connected, to_mask
from genpos.positions import INVARIANTS


def family(spec):
    return generate(parse_family(spec))


def path(n):
    return family(f"path:{n}")


def cycle(n):
    return family(f"cycle:{n}")


def complete(n):
    return family(f"complete:{n}")


def accepts(key, dm, X):
    """Whether the vertex set X is a ``key`` set: ``INVARIANTS[key].accepts``."""
    return INVARIANTS[key].accepts(dm, to_mask(X))


def random_graph(n, bits):
    """Bit i of ``bits`` is the i-th pair (u, v), u < v, ordered by v then u;
    bits beyond the C(n, 2) pairs are ignored."""
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def random_connected(n, bits):
    g = random_graph(n, bits)
    if is_connected(g):
        return g
    # graft a spanning path so every sampled graph is usable
    return Graph.from_edges(n, g.edges() + [(i, i + 1) for i in range(n - 1)])


def to_nx(g):
    """g as a networkx graph on the vertices 0..n-1, isolated ones included."""
    import networkx as nx

    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(range(g.n))
    return nxg


def _drawn(build, n_min, n_max):
    # bits range over every edge set of order n_max, so dense graphs are drawn
    # as often as sparse ones
    return st.builds(build, st.integers(n_min, n_max),
                     st.integers(0, (1 << comb(n_max, 2)) - 1))


def graphs(n_min, n_max):
    """Labeled graphs of order n_min..n_max, connected or not."""
    return _drawn(random_graph, n_min, n_max)


def connected_graphs(n_min, n_max):
    """Labeled connected graphs of order n_min..n_max."""
    return _drawn(random_connected, n_min, n_max)
