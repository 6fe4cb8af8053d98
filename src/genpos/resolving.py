"""Boundary / mutually-maximally-distant machinery and auxiliary graphs.

The mutually-maximally-distant (MMD) relation is the ``mmd`` table of the
memoized distance matrix.  The strong resolving graph is that table as a
plain ``Graph`` on all of V(G), built by ``strong_resolving_graph`` (its
clique number is memoized, in ``cliques``); the boundary is the set of
vertices with an MMD partner.  ``strong_product_mmd`` reads the MMD table of
a strong product off the factor tables and distances (the five-case lemma).
Also here: the distance->=2-or-true-twins graph used for lexicographic
products, and the twin-free boundary with its SRS graph.
"""

from __future__ import annotations

import itertools
import operator

from .errors import DomainError
from .graphs import (
    Graph,
    complement,
    induced_subgraph,
    is_complete,
    remove_true_twin_edges,
    require_connected,
)


def boundary(g: Graph) -> frozenset[int]:
    """The vertices that have an MMD partner."""
    mmd = require_connected(g, "boundary").mmd
    return frozenset(v for v in range(g.n) if mmd[v])


def strong_resolving_graph(g: Graph) -> Graph:
    """Edges are the MMD pairs of g."""
    return Graph(g.n, tuple(require_connected(g, "strong_resolving_graph").mmd))


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


def tf_boundary_and_srs(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """The SRS graph on the TF-boundary, and its labels in g (the TF-boundary).

    Vertices are boundary vertices with a non-true-twin MMD partner; SRS edges
    are exactly those partnerships.  An adjacent pair is MMD exactly when its
    closed neighbourhoods are equal, so the rows are ``mmd[u] & ~adj[u]``.
    """
    if is_complete(g):
        raise DomainError("the TF-boundary is defined for non-complete graphs only")
    mmd = require_connected(g, "tf_boundary").mmd
    srs, labels = prune_isolated(Graph(g.n, tuple(m & ~a for m, a in zip(mmd, g.adj))))
    if srs is None:
        # Cannot happen for a connected non-complete graph: a diametral pair
        # is MMD and non-adjacent, hence not true twins.
        raise DomainError("graph has no non-twin MMD pair")
    return srs, labels


def strong_product_mmd(g: Graph, h: Graph) -> list[int]:
    """The MMD table of the strong product of g and h, in the product codec
    a * h.n + b, read off the factor tables.

    (a,b) and (c,d) are MMD exactly when a,c are MMD in g and (b,d are MMD
    in h, or b = d, or d_g(a,c) > d_h(b,d)), or when b,d are MMD in h and
    (a = c or d_g(a,c) < d_h(b,d)).
    """
    dm_g = require_connected(g, "mmd product cases")
    dm_h = require_connected(h, "mmd product cases")
    # balls[b][r]: the vertices of h within distance r of b (all of h at the end)
    balls = [list(itertools.accumulate(rings, operator.or_)) for rings in dm_h.layers]
    table = []
    for a in range(g.n):
        mmd_a = dm_g.mmd[a]
        dist_a = dm_g.dist[a]
        for b in range(h.n):
            ball = balls[b]
            last = len(ball) - 1
            mmd_b = dm_h.mmd[b]
            row = 0
            for c in range(g.n):
                # block c over d: with a,c MMD, b,d MMD or d_h(b,d) < d_g(a,c)
                # (b = d included); else b,d MMD and d_h(b,d) > d_g(a,c).
                dg = dist_a[c]
                if mmd_a >> c & 1:
                    block = mmd_b | ball[min(dg - 1, last)]
                else:
                    block = mmd_b & ~ball[min(dg, last)]
                row |= block << c * h.n
            table.append(row)
    return table
