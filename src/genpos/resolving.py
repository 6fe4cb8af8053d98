"""Boundary / mutually-maximally-distant machinery and auxiliary graphs.

Covers the strong resolving graph (full and isolated-vertex-pruned forms),
the distance->=2-or-true-twins graph used for lexicographic products, the
twin-free boundary with its SRS graph, and the five-case test for mutual
maximal distance in a strong product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .graphs import (
    DistanceMatrix,
    Graph,
    distances,
    from_mask,
    induced_subgraph,
    is_complete,
    iter_bits,
    require_connected,
    to_mask,
    true_twin_pairs,
)


def is_maximally_distant(g: Graph, dm: DistanceMatrix, u: int, v: int) -> bool:
    """True when no neighbor of u is farther from v than u is (asymmetric)."""
    if not dm.connected:
        raise DomainError("maximal distance requires a connected graph")
    duv = dm.dist[u][v]
    return all(dm.dist[v][w] <= duv for w in iter_bits(g.adj[u]))


@dataclass(frozen=True)
class BoundaryReport:
    mmd_pairs: frozenset[tuple[int, int]]  # unordered, stored as u < v
    boundary: frozenset[int]

    @property
    def b(self) -> int:
        return len(self.boundary)


def boundary(g: Graph) -> BoundaryReport:
    dm = require_connected(g, "boundary")
    pairs = []
    members = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if is_maximally_distant(g, dm, u, v) and is_maximally_distant(g, dm, v, u):
                pairs.append((u, v))
                members |= 1 << u | 1 << v
    return BoundaryReport(frozenset(pairs), from_mask(members))


@dataclass(frozen=True)
class SRGraph:
    full: Graph  # on all of V(G); edges are the MMD pairs
    pruned: Graph | None  # isolated vertices dropped; None when all were isolated
    pruned_labels: tuple[int, ...]  # pruned index -> original vertex


def strong_resolving_graph(g: Graph) -> SRGraph:
    report = boundary(g)
    full = Graph.from_edges(g.n, sorted(report.mmd_pairs))
    if report.boundary:
        pruned, labels = induced_subgraph(full, report.boundary)
        return SRGraph(full, pruned, labels)
    # Only K1 has an empty boundary; the pruned graph would be empty.
    return SRGraph(full, None, ())


def g2bar(g: Graph) -> Graph:
    """Edges join pairs at distance >= 2 and true-twin pairs."""
    dm = require_connected(g, "g2bar")
    twins = true_twin_pairs(g)
    edges = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if dm.dist[u][v] >= 2 or (u, v) in twins:
                edges.append((u, v))
    return Graph.from_edges(g.n, edges)


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
    require_connected(g, "tf_boundary")
    report = boundary(g)
    edges = report.mmd_pairs - true_twin_pairs(g)
    if not edges:
        # Cannot happen for a connected non-complete graph: a diametral pair
        # is MMD and non-adjacent, hence not true twins.
        raise DomainError("graph has no non-twin MMD pair")
    members = to_mask(u for e in edges for u in e)
    base = Graph.from_edges(g.n, sorted(edges))
    srs, labels = induced_subgraph(base, from_mask(members))
    return from_mask(members), srs, labels


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
    mmd_g = (
        g1 != g2
        and is_maximally_distant(g, dm_g, g1, g2)
        and is_maximally_distant(g, dm_g, g2, g1)
    )
    mmd_h = (
        h1 != h2
        and is_maximally_distant(h, dm_h, h1, h2)
        and is_maximally_distant(h, dm_h, h2, h1)
    )
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
