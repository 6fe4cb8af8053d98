"""Boundary / mutually-maximally-distant machinery and auxiliary graphs.

The mutually-maximally-distant (MMD) relation is the ``mmd`` table of the
memoized distance matrix.  The strong resolving graph is that table as a
plain ``Graph`` on all of V(G), and the boundary is the set of vertices with
an MMD partner.  Also here: the distance->=2-or-true-twins graph used for
lexicographic products, the twin-free boundary with its SRS graph, and the
five-case test for mutual maximal distance in a strong product.
"""

from __future__ import annotations

from .errors import DomainError
from .graphs import (
    Graph,
    complement,
    distances,
    induced_subgraph,
    is_complete,
    remove_true_twin_edges,
    require_connected,
    true_twin_pairs,
)


def boundary(g: Graph) -> frozenset[int]:
    """The vertices that have an MMD partner."""
    mmd = require_connected(g, "boundary").mmd
    return frozenset(v for v in range(g.n) if mmd[v])


def strong_resolving_graph(g: Graph) -> Graph:
    """Edges are the MMD pairs of g."""
    return Graph(g.n, tuple(require_connected(g, "boundary").mmd))


def g2bar(g: Graph) -> Graph:
    """Edges join pairs at distance >= 2 and true-twin pairs: the complement
    of g without its true-twin edges."""
    require_connected(g, "g2bar")
    return complement(remove_true_twin_edges(g))


def prune_isolated(g: Graph) -> tuple[Graph | None, tuple[int, ...]]:
    """Drop isolated vertices; (None, ()) when every vertex was isolated."""
    keep = [v for v in range(g.n) if g.adj[v]]
    if not keep:
        return None, ()
    return induced_subgraph(g, keep)


def tf_boundary_and_srs(g: Graph) -> tuple[frozenset[int], Graph, tuple[int, ...]]:
    """TF-boundary and the SRS graph on it (labels map back to g).

    Vertices are boundary vertices with a non-true-twin MMD partner; SRS edges
    are exactly those partnerships.
    """
    if is_complete(g):
        raise DomainError("the TF-boundary is defined for non-complete graphs only")
    rows = list(require_connected(g, "tf_boundary").mmd)
    for u, v in true_twin_pairs(g):
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    srs, labels = prune_isolated(Graph(g.n, tuple(rows)))
    if srs is None:
        # Cannot happen for a connected non-complete graph: a diametral pair
        # is MMD and non-adjacent, hence not true twins.
        raise DomainError("graph has no non-twin MMD pair")
    return frozenset(labels), srs, labels


_CASES = ("i", "ii", "iii", "iv", "v")


def check_mmd_product_cases(
    g: Graph,
    h: Graph,
    pair_g: tuple[int, int],
    pair_h: tuple[int, int],
) -> tuple[bool, str | None]:
    """Evaluate the five factor-level conditions equivalent to (g1,h1),(g2,h2)
    being MMD in the strong product; returns (holds, first matching case tag).
    """
    dm_g = distances(g)
    dm_h = distances(h)
    if not (dm_g.connected and dm_h.connected):
        raise DomainError("mmd product cases requires a connected graph")
    g1, g2 = pair_g
    h1, h2 = pair_h
    mmd_g = dm_g.mmd[g1] >> g2 & 1
    mmd_h = dm_h.mmd[h1] >> h2 & 1
    dg = dm_g.dist[g1][g2]
    dh = dm_h.dist[h1][h2]
    conditions = (
        mmd_g and mmd_h,
        mmd_g and h1 == h2,
        mmd_h and g1 == g2,
        mmd_g and dg > dh,
        mmd_h and dg < dh,
    )
    for tag, cond in zip(_CASES, conditions):
        if cond:
            return True, tag
    return False, None
