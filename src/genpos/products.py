"""Strong and lexicographic products.

The vertex codec is fixed once and everywhere: (g, h) <-> g * n_H + h.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapacityError
from .graphs import Graph

DEFAULT_VERTEX_CAP = 4096


class ProductGraph(NamedTuple):
    graph: Graph
    n_g: int
    n_h: int

    def encode(self, g: int, h: int) -> int:
        return g * self.n_h + h

    def decode(self, x: int) -> tuple[int, int]:
        return divmod(x, self.n_h)


def _check_cap(g: Graph, h: Graph, cap: int) -> None:
    if g.n * h.n > cap:
        raise CapacityError(
            f"product order {g.n * h.n} exceeds the vertex cap {cap}"
        )


def strong_product(g: Graph, h: Graph, cap: int = DEFAULT_VERTEX_CAP) -> ProductGraph:
    """(a,b) ~ (a',b') iff a=a' & bb' edge, or aa' edge & b=b', or both edges."""
    _check_cap(g, h, cap)
    ng, nh = g.n, h.n
    rows = [0] * (ng * nh)
    for a in range(ng):
        for b in range(nh):
            x = a * nh + b
            # same G-coordinate, move in H
            row = h.adj[b] << (a * nh)
            # move in G, same or adjacent H-coordinate
            closed = h.adj[b] | 1 << b
            m = g.adj[a]
            while m:
                low = m & -m
                m ^= low
                row |= closed << ((low.bit_length() - 1) * nh)
            rows[x] = row
    return ProductGraph(Graph(ng * nh, tuple(rows)), ng, nh)


def lexicographic_product(g: Graph, h: Graph, cap: int = DEFAULT_VERTEX_CAP) -> ProductGraph:
    """(a,b) ~ (a',b') iff a=a' & bb' edge, or aa' edge."""
    _check_cap(g, h, cap)
    ng, nh = g.n, h.n
    full_h = (1 << nh) - 1
    rows = [0] * (ng * nh)
    for a in range(ng):
        cross = 0
        m = g.adj[a]
        while m:
            low = m & -m
            m ^= low
            cross |= full_h << ((low.bit_length() - 1) * nh)
        for b in range(nh):
            rows[a * nh + b] = cross | (h.adj[b] << (a * nh))
    return ProductGraph(Graph(ng * nh, tuple(rows)), ng, nh)

