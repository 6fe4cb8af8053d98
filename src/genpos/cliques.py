"""Exact maximum clique / independence solvers on bitset graphs.

Branch and bound with a greedy-colouring upper bound (Tomita & Seki's MCQ,
2003), each colour class built as one mask as in San Segundo et al.'s
bit-parallel search (Comput. Oper. Res. 2011).  It branches on the highest
colour class first and on the highest label first inside a class, so the
search is deterministic and witnesses are reproducible.
Works on disconnected inputs, which strong resolving graphs often are.
The search is memoized per group on the graph value (``graphs.group_memo``);
``max_clique`` stays a plain function around it, because the benchmark's
tracer wraps it and reads its code object.
"""

from __future__ import annotations

from .errors import DomainError
from .graphs import Graph, complement, from_mask, group_memo, require_connected


def max_clique(g: Graph) -> tuple[int, frozenset[int]]:
    """Exact clique number with a witness clique."""
    return _search(g)


@group_memo
def _search(g: Graph) -> tuple[int, frozenset[int]]:
    adj = g.adj
    best_size = 0
    best_mask = 0

    def expand(clique: int, size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        # Greedy colouring of the candidates, each class one mask (colour k
        # is classes[k - 1]); a clique takes at most one vertex per class.
        classes = []
        left = cand
        while left:
            cls = 0
            avail = left
            while avail:
                low = avail & -avail
                cls |= low
                avail &= ~(adj[low.bit_length() - 1] | low)
            left ^= cls
            classes.append(cls)
        for color in range(len(classes), 0, -1):
            cls = classes[color - 1]
            while cls:
                if size + color <= best_size:
                    return
                v = cls.bit_length() - 1
                low = 1 << v
                cls ^= low
                new_cand = cand & adj[v]
                if size + 1 > best_size:
                    best_size = size + 1
                    best_mask = clique | low
                if new_cand:
                    expand(clique | low, size + 1, new_cand)
                cand ^= low

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
