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
from typing import Iterable, Iterator, Sequence

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
    loops walk their bits inline, the BFS a byte at a time through
    ``_BYTE_BITS`` and the others (searches, oracles, product builders) one
    bit at a time (``low = m & -m; m ^= low``), which skips a generator
    resumption per bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# The set bits of each byte value, lowest first, built by doubling (a tenth
# of the import time of a per-value scan): entry b + 2**i is entry b with i
# appended, for b < 2**i.
_BYTE_BITS: tuple[tuple[int, ...], ...] = ((),)
for _i in range(8):
    _BYTE_BITS += tuple(bits + (_i,) for bits in _BYTE_BITS)
del _i

# Graphs up to this order are validated by one transpose of their packed
# adjacency matrix; larger ones by a scan costing O(arcs), since the packed
# matrix and its swap masks take side**2 bits each (8 GiB at the graph6 order
# cap, 258,047).
TRANSPOSE_MAX_ORDER = 256


def _tile(pattern: int, period: int, total: int) -> int:
    """``pattern`` repeated every ``period`` bits up to ``total`` bits, by
    doubling (``total / period`` is a power of two)."""
    while period < total:
        pattern |= pattern << period
        period <<= 1
    return pattern


@functools.cache
def _transpose_plan(side: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The diagonal mask and the delta swaps (shift, mask) that transpose a
    ``side`` x ``side`` bit matrix packed with row i at bit ``i * side``
    (``side`` a power of two).

    The swap for block size j exchanges bit (i, c), with bit j clear in i
    and set in c, with bit (i + j, c - j), ``j * (side - 1)`` places higher:
    the off-diagonal j x j blocks of every 2j x 2j block trade places.  After
    the swaps for j = side/2, ..., 2, 1 every bit (i, c) sits at (c, i)
    (Knuth, TAOCP 4A, 7.1.3; Warren, *Hacker's Delight*, 7-3).
    """
    full = side * side
    swaps = []
    j = side >> 1
    while j:
        cols = _tile(((1 << j) - 1) << j, 2 * j, side)  # the c with bit j set
        rows = _tile(cols, side, j * side)  # ... in j rows, then j rows clear
        swaps.append((j * (side - 1), _tile(rows, 2 * j * side, full)))
        j >>= 1
    return _tile(1, side + 1, side * (side + 1)), tuple(swaps)


def _pack(rows: Iterable[int], side: int) -> int:
    """Rows in ``0 .. 2**side - 1`` as one int, row i at bit ``i * side``."""
    if side == 8:
        return int.from_bytes(bytes(rows), "little")
    width = side >> 3
    return int.from_bytes(b"".join([r.to_bytes(width, "little") for r in rows]), "little")


def _transpose_packed(m: int, swaps: tuple[tuple[int, int], ...]) -> int:
    for shift, mask in swaps:
        t = (m >> shift ^ m) & mask
        m ^= t ^ t << shift
    return m


def _side(n: int) -> int:
    """The packed row width of an order-n matrix: a power of two >= max(n, 8)."""
    return 8 if n <= 8 else 1 << (n - 1).bit_length()


def transpose(rows: Sequence[int]) -> list[int]:
    """The transpose of the square bit matrix whose row i is ``rows[i]``
    (each in ``0 .. 2**len(rows) - 1``): bit i of the result's row j is bit
    j of ``rows[i]``."""
    n = len(rows)
    side = _side(n)
    data = _transpose_packed(_pack(rows, side), _transpose_plan(side)[1]).to_bytes(
        n * side >> 3, "little")
    if side == 8:
        return list(data)
    width = side >> 3
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


class Graph:
    """Simple undirected graph.  adj[i] is the neighbor bitmask of vertex i.

    Immutable: assigning or deleting an attribute raises AttributeError.  A
    graph equals only another Graph with the same order and rows, and hashes
    as ``hash((n, adj))``, computed once.  It pickles and copies as
    ``Graph(n, adj)``, so an unpickled graph is validated again.
    """

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n: int, adj: Iterable[int]):
        # A list of rows is accepted and kept as a tuple, so the graph hashes.
        adj = tuple(adj)
        if n < 1:
            raise ValueError("graph order must be at least 1")
        if len(adj) != n:
            raise ValueError("adjacency length does not match order")
        # In range, loopless and symmetric: the packed matrix has an empty
        # diagonal and equals its transpose.  Any fault, and every order
        # above the bound, goes to the scan, which names the first fault.
        if n <= TRANSPOSE_MAX_ORDER and min(adj) >= 0 and not max(adj) >> n:
            side = _side(n)
            diag, swaps = _transpose_plan(side)
            m = _pack(adj, side)
            if m & diag or _transpose_packed(m, swaps) != m:
                _scan_rows(n, adj)
        else:
            _scan_rows(n, adj)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "_hash", hash((n, adj)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Graph, (self.n, self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, adj={self.adj!r})"

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return self._hash

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


def _scan_rows(n: int, adj: tuple[int, ...]) -> None:
    """Raise on the first row outside ``0 .. 2**n - 1``, self-loop or
    asymmetric arc of the rows of an order-n graph, in row order."""
    arcs = upper = 0
    symmetric = True
    for i, row in enumerate(adj):
        if row >> n:
            raise ValueError(f"adjacency row {i} references vertices outside 0..{n - 1}")
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
    # Each arc above the diagonal has its reverse, so twice as many arcs in
    # all leaves none without one.  On a failure the row-major scan names
    # the first asymmetric pair.
    if not symmetric or arcs != 2 * upper:
        for i, row in enumerate(adj):
            for j in iter_bits(row):
                if not adj[j] >> i & 1:
                    raise ValueError(f"adjacency not symmetric at ({i},{j})")


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
                lu = layers[u]
                nu = lu[1]
                for v in range(u + 1, self.n):
                    beyond = du[v] + 1
                    lv = layers[v]
                    if not (nu & lv[beyond] or lv[1] & lu[beyond]):
                        table[u] |= 1 << v
                        table[v] |= 1 << u
            self._mmd = table
        return self._mmd


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex; INF across components.  Keeps each BFS frontier
    as ``layers[s][d]``, and as ``rowunion[s]`` the vertices of rings 1 and up
    with a neighbour in the next ring.  Each frontier is walked a byte at a
    time through ``_BYTE_BITS``."""
    n = g.n
    adj = g.adj
    byte_bits = _BYTE_BITS
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
            base = 0
            while m:
                byte = m & 255
                if byte:
                    for i in byte_bits[byte]:
                        v = base + i
                        row[v] = d
                        nxt |= adj[v]
                m >>= 8
                base += 8
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
