"""General position predicates and exact maximum-set solvers.

A pair u, v is treated as positionable w.r.t. X when no vertex of X lies
strictly inside a u,v-geodesic (interior avoidance).  Note that the literal
set-equality phrasing of positionability cannot hold when an endpoint is
outside X, while the outer/dual notions quantify over exactly such pairs;
the interior reading makes all four notions coherent and is used throughout.

``INVARIANTS`` holds the mask predicate, the engines and the cross-check cap
of each of gp, gp_t, gp_o and gp_d; ``invariant`` serves all four from it.
gp has one engine, the gp search.  gp_t, gp_o and gp_d have definition-level
oracles and characterization engines (simplicial count, clique number of the
strong resolving graph, convex-complement search), which must agree up to
the cap.  The total and outer oracles read only the geodesic interiors that
the BFS records per source (``DistanceMatrix.rowunion``); the gp and dual
oracles read the pairwise blocker masks.

One branch-and-bound, ``_max_gp_search``, computes gp and, in its dual mode,
the convex-complement search for gp_d.  It carries the mask of the vertices
that can still join X, shrunk by the blocker and shadow tables when a vertex
joins, by the geodesic hull of the excluded vertices in dual mode, and by
the twin rule for twins with equal closed or equal open neighbourhoods (a
twin is offered only after its lower twins); a child that cannot beat the
best size is never entered.  Dual mode grows the hull from the vertices
outside it, and tests the complement of each accepted set for convexity,
both through ``rowunion`` and ``shadow`` rather than over pairs of
``blockers``.  It also reads the split-pair lemma: when x is in a
dual set X, every pair with x strictly inside one of its geodesics has one
end in X and the other outside.  So a vertex whose split pairs form a graph
that is not bipartite is never offered, and a branch ends once a vertex that
a split pair forces into X can no longer join it.  The dual and outer
oracles stay definition-level and twin-blind, and with the ``_is_*_mask``
predicates keep reading ``blockers`` and ``rowunion``, so gp_d and gp_o keep
two independent engines.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Iterable, NamedTuple

from . import cliques, resolving
from .errors import GenposError
from .graph6 import write_graph6
from .graphs import (
    DistanceMatrix,
    Graph,
    basic_counts,
    distances,
    false_twin_classes,
    from_mask,
    group_memo,
    is_connected,
    require_connected,
    simplicial_vertices,
    to_mask,
    transpose,
    true_twin_classes,
)

VertexSet = Iterable[int]


# ---------------------------------------------------------------------------
# definition-level predicates


def is_convex(dm: DistanceMatrix, X: VertexSet) -> bool:
    """Every geodesic between members of X stays inside X."""
    mask = to_mask(X)
    return _pairs_avoid(dm.blockers, mask, ~mask)


def _pairs_avoid(blockers: list[list[int]], pairs: int, forbidden: int) -> bool:
    """No pair inside ``pairs`` has a ``forbidden`` vertex strictly between
    (``blockers`` is a ``DistanceMatrix.blockers`` table)."""
    rest = pairs
    while rest:
        low = rest & -rest
        rest ^= low
        bu = blockers[low.bit_length() - 1]
        m = rest  # the members of ``pairs`` above this one
        while m:
            low = m & -m
            m ^= low
            if bu[low.bit_length() - 1] & forbidden:
                return False
    return True


def _is_gp_mask(dm: DistanceMatrix, xmask: int) -> bool:
    return _pairs_avoid(dm.blockers, xmask, xmask)


def _is_outer_mask(dm: DistanceMatrix, xmask: int) -> bool:
    # Pairs with at least one endpoint in X must avoid X in their interiors;
    # rowunion[u] collects the interiors of every pair through u.
    rowunion = dm.rowunion
    m = xmask
    while m:
        low = m & -m
        m ^= low
        if rowunion[low.bit_length() - 1] & xmask:
            return False
    return True


def _is_dual_mask(dm: DistanceMatrix, xmask: int) -> bool:
    comp = ~xmask & ((1 << dm.n) - 1)
    return _is_gp_mask(dm, xmask) and _pairs_avoid(dm.blockers, comp, xmask)


def _is_total_mask(dm: DistanceMatrix, xmask: int) -> bool:
    return not dm.all_blockers_union() & xmask


# ---------------------------------------------------------------------------
# definition-level maximum solvers (oracle engine)


def _max_gp_search(dm: DistanceMatrix, dual: bool) -> tuple[int, frozenset[int]]:
    """Largest general position set (with ``dual``, largest whose complement
    is convex), by branch and bound on a candidate mask.

    The search visits general position sets in lexicographic order of their
    sorted labels (lowest candidate first, include before exclude), so the
    witness is the lexicographically first maximum set.  ``cand`` holds the
    vertices above the last member of X that can still join it; the bound is
    ``size + popcount(cand)``.  A child X + v is entered only when
    ``size + 1`` plus the popcount of its ``cand`` beats the best size: a
    child that fails this would return at once without touching the best
    set, in either mode.  ``members`` is X as a tuple, which the kill
    and forced-partner loops read instead of walking ``xmask``.  Three
    prunes shrink ``cand``, each sound:

    - Shadow kills.  X + v + w is in general position exactly when X + v and
      X + w are and no triple {u, v, w} with u in X has one vertex strictly
      inside a geodesic of the other two: w not in ``blockers[v][u]``, v not
      in ``blockers[u][w]`` (w not in ``shadow[u][v]``) and u not in
      ``blockers[v][w]`` (w not in ``shadow[v][u]``).  So removing those
      three masks for every u in X when v joins keeps ``cand`` exactly the
      set of w that can join X + v.
    - Hull (dual mode).  Every vertex below v outside X lies in the
      complement of any X accepted under this branch, and that complement is
      convex, so it contains their geodesic hull.  Before v is offered the
      hull is grown to cover them and removed from ``cand``; once it meets X
      no set of the branch (or of a later sibling, whose hull is larger) is
      accepted.  ``_hull_with`` grows the hull from outside it through
      ``shadow``.  Each accepted X is still tested on its whole complement
      C, also through ``shadow`` (``_shadow_avoid``): it fails when some a
      in C and x in X with x in ``rowunion[a]`` have ``shadow[a][x] & C``.
      The test does not rely on the hull.
    - Twins with equal closed or equal open neighbourhoods.  v is offered
      only when every lower-labelled twin of v is in X: once v is passed
      over, its higher twins leave ``cand``.  No vertex is a twin of both
      kinds: with N[u] = N[v] and N(w) = N(v), u is in N(v) = N(w), so w is
      in N[u] = N[v] and adjacent to v, but v is not in N(v) = N(w).  So the
      classes are disjoint.  Swapping two twins of either kind is an
      automorphism, so it maps general position sets and dual sets to sets
      of the same kind and size.
      A maximum set S that holds v but not a lower twin u maps to S - v + u,
      which is lexicographically smaller.  So the lexicographically first
      maximum set holds no twin without its lower twins, no twin kill
      removes one of its members, and it is still reached and still the
      witness.

    Dual mode also uses the split-pair lemma.  Let X be a dual set and x in
    X.  Every pair {a, b} with x strictly inside an a,b-geodesic has one end
    in X and the other in the complement C: both in X would break general
    position, both in C the convexity of C.  These pairs are the edges of
    the split graph Q_x, whose row a is ``shadow[a][x]``.  Two more prunes
    follow from it:

    - Split filter.  X and C two-colour Q_x, so a vertex whose Q_x is not
      bipartite is in no dual set.  The search starts without those
      vertices (``_never_dual``) in ``cand``, which takes no dual set away.
    - Forced partners.  The hull lies in C.  So when v joins X, each a in
      the hull forces ``shadow[a][v]`` into X, and when c enters the hull,
      it forces ``shadow[c][u]`` into X for each u in X.  ``need`` collects
      these vertices.  A branch ends once a ``need`` vertex is neither in X
      nor in ``cand``: the branch accepts only sets inside X + cand, none of
      which holds that vertex, so none is dual.  Where the twin rule took
      the vertex out of ``cand``, that is the twin argument above: every
      dual set of the branch would hold a twin without its lower twin, so
      none is the witness.  An X that misses a ``need`` vertex is not tested.

    On the path to the lexicographically first maximum dual set W, X is
    inside W, the hull and ``_never_dual`` are outside it and W is inside
    X + cand, so W holds every ``need`` vertex, the bound exceeds the best
    size found before W and no prune fires: W is still reached and still
    the witness.
    """
    n = dm.n
    full = (1 << n) - 1
    rowunion = dm.rowunion
    blockers = dm.blockers
    shadow = dm.shadow
    twins_above = [0] * n
    adj = [rings[1] for rings in dm.layers]
    for twins in true_twin_classes(adj) + false_twin_classes(adj):
        above = to_mask(twins)
        for v in twins:
            above ^= 1 << v
            twins_above[v] = above
    best = -1
    best_mask = 0

    def extend(xmask: int, members: tuple[int, ...], cand: int, hull: int,
               need: int) -> None:
        nonlocal best, best_mask
        size = len(members)
        if size > best and (not dual or not need & ~xmask and _shadow_avoid(
                rowunion, shadow, ~xmask & full, xmask)):
            best, best_mask = size, xmask
        while cand:
            low = cand & -cand
            if dual:
                grown = _hull_with(rowunion, shadow, hull, (low - 1) & ~xmask)
                if grown & xmask:
                    return
                m = grown & ~hull
                while m:
                    c = m & -m
                    m ^= c
                    sc = shadow[c.bit_length() - 1]
                    for u in members:
                        need |= sc[u]
                hull = grown
                cand &= ~hull
                if need & ~(xmask | cand):
                    return
                if not cand & low:
                    continue
            if size + cand.bit_count() <= best:
                return
            cand ^= low
            v = low.bit_length() - 1
            bv = blockers[v]
            sv = shadow[v]
            kill = 0
            for u in members:
                kill |= bv[u] | shadow[u][v] | sv[u]
            child = cand & ~kill
            if size + 1 + child.bit_count() > best:
                partners = need
                if dual:
                    m = hull
                    while m:
                        c = m & -m
                        m ^= c
                        partners |= shadow[c.bit_length() - 1][v]
                extend(xmask | low, members + (v,), child, hull, partners)
            cand &= ~twins_above[v]

    extend(0, (), full & ~_never_dual(dm) if dual else full, 0, 0)
    return best, from_mask(best_mask)


def _never_dual(dm: DistanceMatrix) -> int:
    """Mask of the vertices x in no dual set: those whose split graph Q_x is
    not bipartite (``_max_gp_search`` proves the lemma).  Row a of Q_x is
    ``shadow[a][x]``, the b with x strictly inside an a,b-geodesic; Q_x is
    symmetric, so the OR of its rows is the set of its vertices with a
    neighbour, empty unless x is in ``dm.all_blockers_union()``.  Each part
    is two-coloured by a mask BFS, which fails on an edge inside one side."""
    never = 0
    for x, col in enumerate(zip(*dm.shadow)):
        todo = functools.reduce(operator.or_, col)
        while todo:
            frontier = seen = todo & -todo
            same, other = frontier, 0
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    low = m & -m
                    m ^= low
                    nxt |= col[low.bit_length() - 1]
                if nxt & same:
                    never |= 1 << x
                    seen = todo
                    break
                frontier = nxt & ~seen
                seen |= frontier
                same, other = other | frontier, same
            todo &= ~seen
    return never


def _hull_with(rowunion: list[int], shadow: list[list[int]], hull: int,
               add: int) -> int:
    """Geodesic hull of the convex set ``hull`` together with the mask ``add``.

    Grown from outside: each x that enters the hull takes in the w outside
    it with ``shadow[x][w] & hull``, i.e. w strictly inside an x,h-geodesic
    for some h in the hull (h is in ``shadow[x][w]`` exactly when w is in
    ``blockers[x][h]``, and every such w is in ``rowunion[x]``)."""
    todo = add & ~hull
    hull |= todo
    while todo:
        low = todo & -todo
        todo ^= low
        x = low.bit_length() - 1
        sx = shadow[x]
        m = rowunion[x] & ~hull
        while m:
            w = m & -m
            m ^= w
            if sx[w.bit_length() - 1] & hull:
                hull |= w
                todo |= w
    return hull


def _shadow_avoid(rowunion: list[int], shadow: list[list[int]], pairs: int,
                  forbidden: int) -> bool:
    """``_pairs_avoid(blockers, pairs, forbidden)`` read off the shadow table:
    a ``forbidden`` x lies strictly inside an a,b-geodesic with a, b in
    ``pairs`` exactly when x is in ``rowunion[a]`` and b in ``shadow[a][x]``."""
    rest = pairs
    while rest:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        sa = shadow[a]
        m = rowunion[a] & forbidden
        while m:
            x = m & -m
            m ^= x
            if sa[x.bit_length() - 1] & pairs:
                return False
    return True


def max_gp_oracle(dm: DistanceMatrix) -> tuple[int, frozenset[int]]:
    """Largest general position set."""
    return _max_gp_search(dm, False)


def max_outer_oracle(dm: DistanceMatrix) -> tuple[int, frozenset[int]]:
    """Largest outer set: independent-set search on the pairwise conflicts
    induced by the geodesic interiors ``rowunion`` (heredity makes subset
    pruning sound): u and w conflict when w is in ``rowunion[u]`` or u in
    ``rowunion[w]``."""
    n = dm.n
    rowunion = dm.rowunion
    conf = list(map(operator.or_, rowunion, transpose(rowunion)))
    best = 0
    best_mask = 0

    def extend(xmask: int, size: int, cand: int) -> None:
        nonlocal best, best_mask
        if size > best:
            best, best_mask = size, xmask
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= ~(1 << v)
            extend(xmask | 1 << v, size + 1, cand & ~conf[v])

    extend(0, 0, (1 << n) - 1)
    return best, from_mask(best_mask)


def max_total_oracle(dm: DistanceMatrix) -> tuple[int, frozenset[int]]:
    """Vertices that never lie strictly inside any geodesic."""
    mask = ~dm.all_blockers_union() & ((1 << dm.n) - 1)
    return mask.bit_count(), from_mask(mask)


def max_dual_oracle(dm: DistanceMatrix) -> tuple[int, frozenset[int]]:
    """Largest dual set by include/exclude branch-and-bound on the definition.

    Dual sets are not subset-closed, so every vertex is committed either way;
    a branch dies as soon as a within-X pair or a committed-excluded pair has
    an X vertex strictly between.
    """
    n = dm.n
    blockers = dm.blockers
    best = 0
    best_mask = 0

    def rec(i: int, xmask: int, emask: int, blocked: int, forbidden: int, size: int) -> None:
        nonlocal best, best_mask
        if size + (n - i) <= best:
            return
        if i == n:
            best, best_mask = size, xmask
            return
        v = i
        # include v in X
        if not (blocked >> v & 1) and not (forbidden >> v & 1):
            ok = True
            nb = blocked
            m = xmask
            while m:
                low = m & -m
                m ^= low
                b = blockers[low.bit_length() - 1][v]
                if b & xmask:
                    ok = False
                    break
                nb |= b
            if ok:
                rec(i + 1, xmask | 1 << v, emask, nb, forbidden, size + 1)
        # exclude v: every pair of excluded vertices must stay X-free inside
        acc = 0
        bv = blockers[v]
        m = emask
        while m:
            low = m & -m
            m ^= low
            acc |= bv[low.bit_length() - 1]
        if not acc & xmask:
            rec(i + 1, xmask, emask | 1 << v, blocked, forbidden | acc, size)

    rec(0, 0, 0, 0, 0, 0)
    return best, from_mask(best_mask)


# ---------------------------------------------------------------------------
# characterization engines


def _max_dual_characterization(dm: DistanceMatrix) -> tuple[int, frozenset[int]]:
    """Maximize |X| over general position sets whose complement is convex
    (Pelayo 2013), by the gp search in dual mode; ``_max_gp_search`` argues
    the soundness of its hull and split-pair prunes.
    """
    return _max_gp_search(dm, True)


# ---------------------------------------------------------------------------
# the four invariants


class Invariant(NamedTuple):
    """How ``invariant`` computes and checks one of the four numbers.

    ``accepts(dm, xmask)`` is the definition-level predicate of its sets;
    ``characterization`` and ``oracle`` are its engines on a connected graph
    (``oracle`` is None while the number has one engine); ``cap`` is the
    largest order at which both engines run (None: every order)."""

    accepts: Callable[[DistanceMatrix, int], bool]
    characterization: Callable[[Graph], tuple[int, frozenset[int]]]
    oracle: Callable[[Graph], tuple[int, frozenset[int]]] | None
    cap: int | None


def _simplicial(g: Graph) -> tuple[int, frozenset[int]]:
    s = simplicial_vertices(g)
    return len(s), s


# The engines look their solvers up through this module's names at call
# time, so wrappers placed on those names see every call.
INVARIANTS = {
    "gp": Invariant(_is_gp_mask, lambda g: max_gp_oracle(distances(g)), None, None),
    "gp_t": Invariant(_is_total_mask, _simplicial,
                      lambda g: max_total_oracle(distances(g)), None),
    "gp_o": Invariant(_is_outer_mask,
                      lambda g: cliques.max_clique(resolving.strong_resolving_graph(g)),
                      lambda g: max_outer_oracle(distances(g)), 40),
    "gp_d": Invariant(_is_dual_mask, lambda g: _max_dual_characterization(distances(g)),
                      lambda g: max_dual_oracle(distances(g)), 16),
}


def invariant(key: str, g: Graph, engine: str = "characterization") -> tuple[int, frozenset[int]]:
    """``INVARIANTS[key]`` of a connected graph with its witness, by
    ``engine`` ("characterization" or "oracle").  Up to the entry's cap the
    other engine recomputes the value and must agree; at every order the
    witness must have that size and pass the entry's predicate.  A failed
    check raises GenposError.  gp has one engine, which serves both names.

    Memoized per group through ``_checked``, which stores a disagreement as
    its two sizes, so ``invariant`` raises it again on every call; a failed
    witness check is never stored and also raises on every call."""
    if INVARIANTS[key].oracle is None:
        engine = "characterization"
    pair, other = _checked(key, g, engine)
    if other is not None and other != pair[0]:
        name = "oracle" if engine == "characterization" else "characterization"
        raise GenposError(f"{key} engine disagreement on {write_graph6(g)}: "
                          f"{engine}={pair[0]}, {name}={other}")
    return pair


@group_memo
def _checked(key: str, g: Graph, engine: str) -> tuple[tuple[int, frozenset[int]], int | None]:
    """The ``(size, witness)`` pair of ``engine`` on g, and the other
    engine's size: None for gp and above the entry's cap.  The witness is
    tested, and raises GenposError, only when the two sizes agree.  S1, S2
    and S14 read both sizes here (``statements._engines``)."""
    entry = INVARIANTS[key]
    dm = require_connected(g, key)
    pair = size, witness = getattr(entry, engine)(g)
    other = None
    if entry.oracle is not None and (entry.cap is None or g.n <= entry.cap):
        name = "oracle" if engine == "characterization" else "characterization"
        other = getattr(entry, name)(g)[0]
    if other in (None, size) and (len(witness) != size or not entry.accepts(dm, to_mask(witness))):
        raise GenposError(f"{key} {engine} witness {sorted(witness)} on "
                          f"{write_graph6(g)} is not a {key} set of size {size}")
    return pair, other


# ---------------------------------------------------------------------------
# invariant bundles


def compute_bundle(
    g: Graph,
    witnesses: bool = False,
    engine: str = "characterization",
) -> dict:
    """All invariants of one connected graph as a JSON-ready dict."""
    dm = require_connected(g, "invariants")
    n, n1, _ = basic_counts(g)
    diam = dm.diameter
    omega, omega_w = cliques.max_clique(g)
    alpha, alpha_w = cliques.independence_number(g)
    vals = {key: invariant(key, g, engine=engine) for key in INVARIANTS}
    bundle = {
        "n": n,
        "n1": n1,
        "diam": diam,
        "s": len(simplicial_vertices(g)),
        "b": len(resolving.boundary(g)),
        "omega": omega,
        "alpha": alpha,
        **{key: size for key, (size, _) in vals.items()},
    }
    if diam >= 2:
        bundle["alpha_km1"] = cliques.alpha_k(g, diam - 1)[0]
    else:
        bundle["alpha_km1"] = None
    if witnesses:
        bundle["witnesses"] = {
            "omega": sorted(omega_w),
            "alpha": sorted(alpha_w),
            **{key: sorted(w) for key, (_, w) in vals.items()},
        }
    return bundle


def structure_bundle(g: Graph) -> dict:
    """Structure-level fields only, defined for disconnected graphs too."""
    n, n1, delta = basic_counts(g)
    omega, _ = cliques.max_clique(g)
    alpha, _ = cliques.independence_number(g)
    return {
        "n": n,
        "n1": n1,
        "max_degree": delta,
        "omega": omega,
        "alpha": alpha,
        "connected": is_connected(g),
    }
