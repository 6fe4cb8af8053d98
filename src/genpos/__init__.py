"""Exact computation of general position invariants on bitset graphs.

Four invariants (gp, gp_t, gp_o, gp_d), their behavior under strong and
lexicographic products, and an executable catalog of the supporting
statements checked against definition-level oracles.
"""

from .errors import (
    CapacityError,
    DomainError,
    GenposError,
    Graph6Error,
    SpecError,
)
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph, all_pairs_distances
from .positions import INVARIANTS, compute_bundle, invariant
from .products import lexicographic_product, strong_product

__all__ = [
    "CapacityError",
    "DomainError",
    "GenposError",
    "Graph6Error",
    "SpecError",
    "Graph",
    "all_pairs_distances",
    "parse_graph6",
    "write_graph6",
    "compute_bundle",
    "INVARIANTS",
    "invariant",
    "strong_product",
    "lexicographic_product",
]

__version__ = "0.1.0"
