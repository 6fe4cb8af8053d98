"""Exact maximum clique / independence solvers on bitset graphs.

Branch and bound with a greedy-coloring upper bound; deterministic (ties
broken by lowest label), so witnesses are reproducible.
Works on disconnected inputs, which strong resolving graphs often are.
"""

from __future__ import annotations

from .errors import DomainError
from .graphs import Graph, complement, from_mask, require_connected


def max_clique(g: Graph) -> tuple[int, frozenset[int]]:
    """Exact clique number with a witness clique."""
    adj = g.adj
    best_size = 0
    best_mask = 0

    def coloring(cand: int) -> list[tuple[int, int]]:
        # Greedy coloring of the candidate set; (vertex, color) pairs with
        # colors nondecreasing.  Reversed, this is the branching order.
        out: list[tuple[int, int]] = []
        color = 0
        left = cand
        while left:
            color += 1
            avail = left
            while avail:
                v = (avail & -avail).bit_length() - 1
                out.append((v, color))
                left &= ~(1 << v)
                avail &= ~adj[v] & ~(1 << v)
        return out

    def expand(clique: int, size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        for v, color in reversed(coloring(cand)):
            if size + color <= best_size:
                return
            new_clique = clique | 1 << v
            new_cand = cand & adj[v]
            if size + 1 > best_size:
                best_size = size + 1
                best_mask = new_clique
            if new_cand:
                expand(new_clique, size + 1, new_cand)
            cand &= ~(1 << v)

    expand(0, 0, g.vertices_mask())
    return best_size, from_mask(best_mask)


def independence_number(g: Graph) -> tuple[int, frozenset[int]]:
    """Exact independence number via a clique search on the complement."""
    return max_clique(complement(g))


def alpha_k(g: Graph, k: int) -> tuple[int, frozenset[int]]:
    """Largest set with pairwise distance > k; alpha_1 is the independence number."""
    if k < 1:
        raise DomainError("alpha_k requires k >= 1")
    rows = []
    for rings in require_connected(g, "alpha_k").layers:
        far = 0
        for ring in rings[k + 1:]:
            far |= ring
        rows.append(far)
    return max_clique(Graph(g.n, tuple(rows)))
