"""Immutable simple graphs with bitset adjacency, distances and basic derived graphs.

Vertices are dense integer labels 0..n-1.  Every vertex set in this package is
either a frozenset of labels (public API) or an int bitmask (internals); the
helpers ``to_mask`` / ``from_mask`` convert between the two.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DomainError

INF = math.inf


def to_mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def from_mask(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first.  For cold paths only: the hot
    loops (BFS, searches, oracles, product builders) walk the bits inline
    (``low = m & -m; m ^= low``), which skips a generator resumption per
    bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph.  adj[i] is the neighbor bitmask of vertex i."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        # A list of rows is accepted and kept as a tuple, so the graph hashes.
        object.__setattr__(self, "adj", tuple(self.adj))
        if self.n < 1:
            raise ValueError("graph order must be at least 1")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match order")
        adj = self.adj
        arcs = upper = 0
        symmetric = True
        for i, row in enumerate(adj):
            if row >> self.n:
                raise ValueError(
                    f"adjacency row {i} references vertices outside 0..{self.n - 1}"
                )
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
            above = row >> i + 1 << i + 1
            arcs += row.bit_count()
            upper += above.bit_count()
            while above:
                low = above & -above
                if not adj[low.bit_length() - 1] >> i & 1:
                    symmetric = False
                above ^= low
        # Each arc above the diagonal has its reverse, so twice as many arcs
        # in all leaves none without one.  On a failure the row-major scan
        # names the first asymmetric pair.
        if not symmetric or arcs != 2 * upper:
            for i, row in enumerate(adj):
                for j in iter_bits(row):
                    if not adj[j] >> i & 1:
                        raise ValueError(f"adjacency not symmetric at ({i},{j})")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) references vertices outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def closed_neighborhood(self, v: int) -> int:
        return self.adj[v] | 1 << v

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in iter_bits(self.adj[u]) if u < v]

    def num_edges(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def vertices_mask(self) -> int:
        return (1 << self.n) - 1


class DistanceMatrix:
    """All-pairs hop distances with the derived strict-betweenness predicate
    and the mutual-maximal-distance relation.

    ``dist[u][v]`` is an int hop count or ``INF`` across components.
    ``layers[s][d]`` is the mask of vertices at distance d from s, ending with
    one empty mask, so ``layers[s][1]`` is N(s).  ``rowunion[u]`` is the mask
    of the w != u that lie strictly inside some u,v-geodesic, recorded by the
    BFS from u as the vertices of each ring with a neighbour one ring further
    out.  That is exact: if w is strictly inside a u,v-geodesic, its successor
    x on that geodesic is a neighbour with d(u,x) = d(u,w) + 1; conversely, if
    a neighbour x of w has d(u,x) = d(u,w) + 1, a shortest u,w-path followed
    by the edge wx is a u,x-geodesic with w strictly inside.  The lazily built
    tables are each read off the layers in one pass.  ``blockers[u][v]`` is
    the mask of the w with w != u, w != v and d(u,w) + d(w,v) = d(u,v) = d,
    i.e. the strict interiors of the u,v-geodesics: the OR over 0 < k < d of
    ``layers[u][k] & layers[v][d - k]``, so ``rowunion[u]`` is the OR of
    ``blockers[u]``.  ``mmd[u]`` is the mask of the v mutually maximally
    distant from u (no neighbour of u is farther from v than u is, and vice
    versa): neither ``layers[u][1] & layers[v][d + 1]`` nor its mirror has a
    vertex.  ``shadow[u][v]`` is the mask of the w for which v lies strictly
    inside a u,w-geodesic, i.e. d(u,w) = d(u,v) + d(v,w) with v != u, w: the
    OR over k >= 1 of ``layers[u][d + k] & layers[v][k]`` with d = d(u,v),
    so w is in ``shadow[u][v]`` exactly when v is in ``blockers[u][w]``.
    ``diameter`` is INF exactly when the graph is disconnected
    (``connected`` is False).
    """

    def __init__(self, dist: list[list[float]], layers: list[list[int]],
                 rowunion: list[int]):
        self.dist = dist
        self.layers = layers
        self.rowunion = rowunion
        self.n = len(dist)
        self.diameter = max(max(row) for row in dist)
        self.connected = self.diameter != INF
        self._blockers: list[list[int]] | None = None
        self._mmd: list[int] | None = None
        self._shadow: list[list[int]] | None = None

    @property
    def blockers(self) -> list[list[int]]:
        if self._blockers is None:
            n = self.n
            layers = self.layers
            table = [[0] * n for _ in range(n)]
            for u in range(n):
                du = self.dist[u]
                lu = layers[u]
                for v in range(u + 1, n):
                    d = du[v]
                    if d == INF or d <= 1:
                        continue
                    lv = layers[v]
                    m = 0
                    for k in range(1, d):
                        m |= lu[k] & lv[d - k]
                    table[u][v] = table[v][u] = m
            self._blockers = table
        return self._blockers

    @property
    def shadow(self) -> list[list[int]]:
        if self._shadow is None:
            layers = self.layers
            table = []
            for u in range(self.n):
                du = self.dist[u]
                lu = layers[u]
                top = len(lu) - 1  # lu[top] is the closing empty mask
                row = [0] * self.n
                for v in range(self.n):
                    d = du[v]
                    if d == 0 or d + 1 >= top:  # v == u, or no vertex beyond v (d may be INF)
                        continue
                    lv = layers[v]
                    m = 0
                    for k in range(1, top - d):
                        m |= lu[d + k] & lv[k]
                    row[v] = m
                table.append(row)
            self._shadow = table
        return self._shadow

    def all_blockers_union(self) -> int:
        return functools.reduce(operator.or_, self.rowunion)

    @property
    def mmd(self) -> list[int]:
        if self._mmd is None:
            if not self.connected:
                raise DomainError("maximal distance requires a connected graph")
            layers = self.layers
            table = [0] * self.n
            for u in range(self.n):
                du = self.dist[u]
                for v in range(u + 1, self.n):
                    beyond = du[v] + 1
                    if not (layers[u][1] & layers[v][beyond]
                            or layers[v][1] & layers[u][beyond]):
                        table[u] |= 1 << v
                        table[v] |= 1 << u
            self._mmd = table
        return self._mmd


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex; INF across components.  Keeps each BFS frontier
    as ``layers[s][d]``, and as ``rowunion[s]`` the vertices of rings 1 and up
    with a neighbour in the next ring."""
    n = g.n
    adj = g.adj
    dist: list[list[float]] = []
    layers: list[list[int]] = []
    rowunion: list[int] = []
    for s in range(n):
        row: list[float] = [INF] * n
        seen = 1 << s
        frontier = 1 << s
        rings = [frontier]
        inner = 0
        d = 0
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                row[v] = d
                nxt |= adj[v]
            if d >= 2:
                inner |= rings[d - 1] & nxt
            frontier = nxt & ~seen
            seen |= frontier
            rings.append(frontier)
            d += 1
        dist.append(row)
        layers.append(rings)
        rowunion.append(inner)
    return DistanceMatrix(dist, layers, rowunion)


# How many recent results each group_memo keeps.  On a serial exhaustive:5
# catalog pass, with 4, 8 and 16 entries, `positions._checked` got 4,504,
# 5,181 and 5,181 memo hits and the clique search (`cliques._search`) 4,462,
# 4,726 and 4,841; the products and instance names need only 2.
MEMO_SIZE = 8
_MEMOS = []


def group_memo(fn):
    """``fn`` memoized on its hashable arguments until ``clear_memos``.

    An exception is never stored, so a call that raised raises again."""
    memo = functools.lru_cache(maxsize=MEMO_SIZE)(fn)
    _MEMOS.append(memo)
    return memo


@group_memo
def distances(g: Graph) -> DistanceMatrix:
    """``all_pairs_distances(g)``, memoized on the frozen graph.

    Every caller of one graph shares the returned matrix (and its lazily built
    blocker and MMD tables), so callers must not modify it.
    """
    return all_pairs_distances(g)


def clear_memos() -> None:
    """Forget every memoized result of each ``group_memo``."""
    for memo in _MEMOS:
        memo.cache_clear()


def is_connected(g: Graph) -> bool:
    adj = g.adj
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == g.vertices_mask()


def require_connected(g: Graph, op: str) -> DistanceMatrix:
    """The memoized distances of g; DomainError naming ``op`` when g is
    disconnected."""
    dm = distances(g)
    if not dm.connected:
        raise DomainError(f"{op} requires a connected graph")
    return dm


def diameter(g: Graph) -> int:
    return require_connected(g, "diameter").diameter


def complement(g: Graph) -> Graph:
    full = g.vertices_mask()
    rows = tuple((full & ~g.adj[v]) & ~(1 << v) for v in range(g.n))
    return Graph(g.n, rows)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges; g keeps labels, h is shifted by g.n."""
    n = g.n + h.n
    gmask = g.vertices_mask()
    hmask = ((1 << h.n) - 1) << g.n
    rows = [g.adj[v] | hmask for v in range(g.n)]
    rows += [(h.adj[v] << g.n) | gmask for v in range(h.n)]
    return Graph(n, tuple(rows))


def disjoint_union(parts: list[Graph]) -> Graph:
    if not parts:
        raise ValueError("disjoint union of zero graphs")
    rows: list[int] = []
    shift = 0
    for p in parts:
        rows.extend(p.adj[v] << shift for v in range(p.n))
        shift += p.n
    return Graph(shift, tuple(rows))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices`` plus the label map new index -> old label."""
    labels = tuple(sorted(set(vertices)))
    index = {old: new for new, old in enumerate(labels)}
    rows = [0] * len(labels)
    for new, old in enumerate(labels):
        m = g.adj[old]
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            if w in index:
                rows[new] |= 1 << index[w]
    return Graph(len(labels), tuple(rows)), labels


def true_twin_classes(adj: Iterable[int]) -> list[list[int]]:
    """The classes of two or more vertices with equal closed neighborhoods,
    each sorted, from adjacency rows (``Graph.adj``, or ``layers[s][1]`` of a
    distance matrix)."""
    return _equal_classes(row | 1 << v for v, row in enumerate(adj))


def false_twin_classes(adj: Iterable[int]) -> list[list[int]]:
    """The classes of two or more vertices with equal open neighborhoods,
    each sorted, from adjacency rows as for ``true_twin_classes``."""
    return _equal_classes(adj)


def _equal_classes(keys: Iterable[int]) -> list[list[int]]:
    classes: dict[int, list[int]] = {}
    for v, key in enumerate(keys):
        classes.setdefault(key, []).append(v)
    return [c for c in classes.values() if len(c) > 1]


def true_twin_pairs(g: Graph) -> frozenset[tuple[int, int]]:
    """Pairs u < v with equal closed neighborhoods (necessarily adjacent)."""
    return frozenset(
        pair for c in true_twin_classes(g.adj) for pair in itertools.combinations(c, 2)
    )


def remove_true_twin_edges(g: Graph) -> Graph:
    """Delete the edge of every true-twin pair, all pairs taken on the input graph."""
    rows = list(g.adj)
    for u, v in true_twin_pairs(g):
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def is_clique_mask(g: Graph, mask: int) -> bool:
    adj = g.adj
    m = mask
    while m:
        low = m & -m
        m ^= low
        if mask & ~(adj[low.bit_length() - 1] | low):
            return False
    return True


@group_memo
def simplicial_vertices(g: Graph) -> frozenset[int]:
    return frozenset(v for v in range(g.n) if is_clique_mask(g, g.adj[v]))


def basic_counts(g: Graph) -> tuple[int, int, int]:
    """(order, number of leaves, maximum degree)."""
    degs = [g.degree(v) for v in range(g.n)]
    return g.n, sum(1 for d in degs if d == 1), max(degs)


def is_complete(g: Graph) -> bool:
    return all(g.degree(v) == g.n - 1 for v in range(g.n))


def universal_vertices(g: Graph) -> frozenset[int]:
    return frozenset(v for v in range(g.n) if g.degree(v) == g.n - 1)


def is_block_graph(g: Graph) -> bool:
    """Connected, and every biconnected block induces a clique.

    Howorka (*On metric properties of certain clique graphs*, JCTB 1979): a
    connected graph is a block graph exactly when its metric satisfies the
    four-point condition, i.e. for every four vertices the two largest of
    d(x,y)+d(z,w), d(x,z)+d(y,w), d(y,z)+d(x,w) are equal (the metric is
    0-hyperbolic).  Gromov's base-point lemma: a metric that is
    delta-hyperbolic at one base point is 2*delta-hyperbolic at every base
    point, so it suffices to test the quadruples with w = 0.
    """
    dm = distances(g)
    if not dm.connected:
        return False
    d = dm.dist
    d0 = d[0]
    for x, y, z in itertools.combinations(range(1, g.n), 3):
        _, b, c = sorted((d[x][y] + d0[z], d[x][z] + d0[y], d[y][z] + d0[x]))
        if b != c:
            return False
    return True
