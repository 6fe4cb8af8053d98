"""Executable catalog of the numbered statements, corpus handling, verdicts.

Every statement id S1..S27 maps to a checker that returns a verdict: holds,
fails, or precondition-not-met.  A checker is registered once, by
``@statement``, which also decides where the statement applies: it tests
connectivity, then the hypotheses the statement names (module-level
``(note, test)`` constants such as ``FACTORS_2``: order, twin-freeness,
diameter, completeness, block-graph structure), then its product's order
cap, and answers precondition-not-met with the first unmet note; otherwise
it builds the product and hands it to the checker.  The checker itself keeps
only the mathematics and its clause logic.  An exact-value statement, which
claims the product's number, declares its claims as ``Clause`` records
instead, and ``exact`` checks them.  Instance names, products and clique
numbers (``cliques``) are memoized per group (``graphs.group_memo``); the
cap check stays outside the memo.  The suite's central property is zero fails:
the statements are proved facts, so a failing verdict flags an
implementation bug.  The one documented exception is S17 on
``cycle_plus:7``, where the claimed gp_d = 3 is not attained (the value is
1; see ``check_s17``), so a full run reports exactly that one fail.
gp, gp_t, gp_o and gp_d values and sets feeding a verdict come from
``positions.invariant`` with its default engine, which cross-checks the two
engines up to the caps in ``positions.INVARIANTS`` and tests every witness
with its predicate, so a group computes each number of a graph once.  S1,
S2 and S14, whose claim is that the two engines agree, read both sizes from
the same memo entry (``_engines``) and report a disagreement as a fail;
every other reader gets it as a GenposError.  No checker calls an engine.
"""

from __future__ import annotations

import itertools
import operator
import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial, wraps
from typing import Callable, NamedTuple

from . import cliques, families, positions, resolving
from .errors import CapacityError, SpecError
from .graph6 import parse_graph6, write_graph6
from .graphs import (
    Graph,
    basic_counts,
    clear_memos,
    distances,
    from_mask,
    group_memo,
    is_block_graph,
    is_complete,
    is_connected,
    disjoint_union,
    join,
    remove_true_twin_edges,
    simplicial_vertices,
    to_mask,
    true_twin_classes,
    universal_vertices,
)
from .products import ProductGraph, lexicographic_product, strong_product

ENUMERATION_MAX_ORDER = 6
ISO_MAX_ORDER = 12


# ---------------------------------------------------------------------------
# verdicts and the registry


class Verdict(NamedTuple):
    """One statement on one instance.  A named tuple, so that it is built,
    pickled across the pool and unpickled without an instance dict."""

    statement: str
    instance: str
    outcome: str  # "holds" | "fails" | "precondition-not-met"
    lhs: object = None
    rhs: object = None
    counterexample: object = None
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "type": "verdict",
            "statement": self.statement,
            "instance": self.instance,
            "outcome": self.outcome,
        }
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class Statement:
    sid: str
    arity: str  # "graph" | "pair" | "fixed"
    description: str
    checker: Callable


STATEMENTS: dict[str, Statement] = {}


def statement(sid: str, arity: str, description: str, *requires,
              strong: int = 0, lex: int = 0):
    """Register the decorated checker in STATEMENTS as statement sid.

    A graph or pair checker ``fn(verdict, g[, h][, pg])`` receives a Verdict
    factory bound to sid and the instance name, the graph6 of each argument
    joined by commas.  The wrapper alone decides where the statement
    applies.  It answers precondition-not-met with the note of the first
    unmet one of, in order: ``CONNECTED`` (a ``file:`` corpus may hold a
    disconnected graph), each hypothesis of ``requires``, and, with
    ``strong=cap`` or ``lex=cap``, "product order above cap N".  Otherwise
    it builds that product of (g, h), or of (g, g) for a graph statement,
    through the per-group ``_built`` memo, and passes it as ``pg``.  The
    builder is looked up at call time, so patching ``strong_product`` here
    reaches the checkers.  A fixed checker ``fn(verdict)`` names its own
    instances, so its factory is bound to sid only.  The decorated name is
    the registered checker: ``check_sN(g[, h])`` returns one Verdict, a
    fixed ``check_sN()`` a list of them.
    """
    build, cap = ("strong_product", strong) if strong else ("lexicographic_product", lex)
    checks = [CONNECTED, *requires]
    if cap:
        checks.append((f"product order above cap {cap}",
                       lambda *graphs: graphs[0].n * graphs[-1].n <= cap))

    def register(fn):
        if arity == "fixed":
            def checker():
                return fn(partial(Verdict, sid))
        else:
            def checker(*graphs):
                # interned: every verdict of the instance shares one name
                name = sys.intern(",".join(_graph6(g) for g in graphs))
                verdict = partial(Verdict, sid, name)
                for note, test in checks:
                    if not test(*graphs):
                        return verdict("precondition-not-met", note=note)
                if cap:
                    graphs += (_built(globals()[build], graphs[0], graphs[-1]),)
                return fn(verdict, *graphs)
        checker = wraps(fn)(checker)
        STATEMENTS[sid] = Statement(sid, arity, description, checker)
        return checker

    return register


def _equalities(verdict, checks: dict[str, tuple], note: str = "") -> Verdict:
    """Verdict from named lhs==rhs checks; any mismatch is a fail.  Without
    checks no clause applied: precondition-not-met with the note, or with
    "no clause applicable" when the note is empty."""
    if not checks:
        return verdict("precondition-not-met", note=note or "no clause applicable")
    bad = {k: [l, r] for k, (l, r) in checks.items() if l != r}
    lhs = {k: v[0] for k, v in checks.items()}
    rhs = {k: v[1] for k, v in checks.items()}
    if len(checks) == 1:
        (lhs,) = lhs.values()
        (rhs,) = rhs.values()
    if bad:
        return verdict("fails", lhs, rhs, counterexample=bad, note=note)
    return verdict("holds", lhs, rhs, note=note)


def _holds_if(verdict, ok: bool, lhs, rhs, note: str = "") -> Verdict:
    return verdict("holds" if ok else "fails", lhs, rhs, note=note)


def _bounds(verdict, lower: int, mid: int, upper: int, note: str = "") -> Verdict:
    """Holds when lower <= mid <= upper; lhs [lower, mid], rhs [mid, upper]."""
    return _holds_if(verdict, lower <= mid <= upper, [lower, mid], [mid, upper], note)


class Clause(NamedTuple):
    """One claim of an exact-value statement: where ``applies(g, h)`` holds,
    the product's number is ``value(g, h)``.  ``tag`` names the check in the
    verdict; a nonzero ``cap`` bounds the product order for this clause."""

    tag: str
    value: Callable
    applies: Callable = lambda g, h: True
    cap: int = 0


def exact(sid: str, description: str, key: str, *clauses: Clause, requires=(),
          strong: int = 0, lex: int = 0):
    """Register pair statement sid through ``@statement``: invariant ``key``
    of the strong product of (g, h) with ``strong``, else of the
    lexicographic one, is the value of each clause that applies.  A clause
    above its own cap notes "<i|ii|iii>: product order above cap N"."""
    build = "strong_product" if strong else "lexicographic_product"

    def check(verdict, g: Graph, h: Graph, *_) -> Verdict:
        checks, notes = {}, []
        for k, clause in enumerate(clauses):
            if not clause.applies(g, h):
                continue
            if clause.cap and g.n * h.n > clause.cap:
                notes.append(f"{('i', 'ii', 'iii')[k]}: product order above cap {clause.cap}")
                continue
            product = _built(globals()[build], g, h).graph
            checks[clause.tag] = (_number(key, product), clause.value(g, h))
        return _equalities(verdict, checks, note="; ".join(notes))

    return statement(sid, "pair", description, *requires, strong=strong, lex=lex)(check)


# ---------------------------------------------------------------------------
# shared helpers


def _twin_free(g: Graph) -> bool:
    return not true_twin_classes(g.adj)


def _no_universal(g: Graph) -> bool:
    return not universal_vertices(g)


def _s(g: Graph) -> int:
    return len(simplicial_vertices(g))


def _number(key: str, g: Graph) -> int:
    """Invariant ``key`` of g, cross-checked by ``positions.invariant``."""
    return positions.invariant(key, g)[0]


def _engines(key: str, g: Graph) -> tuple[int, int]:
    """Oracle and characterization values of ``key`` on g, from the memo
    entry that ``positions.invariant`` reads, so an engine disagreement is
    a value here; above the entry's cap the oracle runs alone."""
    (size, _), other = positions._checked(key, g, "characterization")
    if other is None:
        other = positions.invariant(key, g, "oracle")[0]
    return other, size


def _h_diam_2(g: Graph, h: Graph) -> bool:
    return distances(h).diameter == 2


def _omega_tf_srs(g: Graph) -> int:
    """Clique number of the SRS graph on the TF-boundary of g."""
    return cliques.max_clique(resolving.tf_boundary_and_srs(g)[0])[0]


def _family(spec: str) -> Graph:
    return families.generate(families.parse_family(spec))


def _cone(h: Graph) -> Graph:
    """K1 + H: one new vertex joined to every vertex of H."""
    return join(Graph(1, (0,)), h)


@group_memo
def _graph6(g: Graph) -> str:
    """``write_graph6(g)``, named once per group for all of its verdicts."""
    return write_graph6(g)


@group_memo
def _built(build, g: Graph, h: Graph):
    """``build(g, h)``, built once per group for all of its checkers."""
    return build(g, h)


def _outer_bounds(g: Graph, h: Graph, prod: Graph) -> tuple[int, int, int]:
    """gp_o(G) gp_o(H), gp_o of their strong product, and b(G) b(H)."""
    lower = _number("gp_o", g) * _number("gp_o", h)
    mid = _number("gp_o", prod)
    upper = len(resolving.boundary(g)) * len(resolving.boundary(h))
    return lower, mid, upper


# ---------------------------------------------------------------------------
# hypotheses: (note, test) with test(g) for a graph statement and test(g, h)
# for a pair statement; the note names what an instance that fails it lacks.
CONNECTED = ("requires connected graphs",
             lambda *graphs: all(distances(g).connected for g in graphs))
SUBSET_SWEEP = (f"subset sweep capped at n <= {ENUMERATION_MAX_ORDER}",
                lambda g: g.n <= ENUMERATION_MAX_ORDER)
# a connected graph has an MMD pair, hence a non-empty pruned SRS, iff n >= 2
NOT_K1 = ("empty boundary (K1): pruned SR graph is empty", lambda g: g.n >= 2)
ORDER_2 = ("requires order >= 2", lambda g: g.n >= 2)
TWIN_FREE = ("requires a twin-free graph", _twin_free)
DIAM_2 = ("requires diameter 2", lambda g: distances(g).diameter == 2)
DIAM_AT_LEAST_2 = ("requires diameter >= 2", lambda g: distances(g).diameter >= 2)
FACTORS_2 = ("requires both factors of order >= 2", lambda g, h: g.n >= 2 and h.n >= 2)
BLOCK_GRAPHS = ("requires two block graphs",
                lambda g, h: is_block_graph(g) and is_block_graph(h))
G_ORDER_2 = ("first factor must have order >= 2", lambda g, h: g.n >= 2)
G_COMPLETE = ("first factor must be complete", lambda g, h: is_complete(g))
G_COMPLETE_2 = ("first factor must be complete of order >= 2",
                lambda g, h: g.n >= 2 and is_complete(g))
G_NON_COMPLETE = ("first factor must be non-complete", lambda g, h: not is_complete(g))
G_TWIN_FREE = ("first factor must be twin-free", lambda g, h: _twin_free(g))
H_COMPLETE_2 = ("second factor must be complete of order >= 2",
                lambda g, h: h.n >= 2 and is_complete(h))
H_NON_COMPLETE = ("second factor must be non-complete", lambda g, h: not is_complete(h))
H_NO_UNIVERSAL = ("second factor must have no universal vertex",
                  lambda g, h: h.n >= 2 and _no_universal(h))


# ---------------------------------------------------------------------------
# isomorphism (a clique search on the modular product, small graphs only)


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism with degree-sequence pruning; n <= 12 only.  Graphs of
    order n are isomorphic exactly when their modular product has an n-clique
    (Barrow & Burstall, 1976): vertex u * n + x pairs u in g with x in h, and
    (u, x) ~ (v, y) when u != v, x != y and uv is an edge exactly when xy is."""
    if g.n != h.n:
        return False
    if g.n > ISO_MAX_ORDER:
        raise CapacityError(f"isomorphism search supports n <= {ISO_MAX_ORDER}")
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    n = g.n
    full = (1 << n) - 1
    modular = Graph(n * n, [
        sum((h.adj[x] if g.has_edge(u, v) else full & ~h.closed_neighborhood(x)) << v * n
            for v in range(n) if v != u)
        for u in range(n) for x in range(n)])
    return cliques.max_clique(modular)[0] == n


# ---------------------------------------------------------------------------
# statement checkers (single graph)


@statement("S1", "graph", "total general position number equals the simplicial count")
def check_s1(verdict, g: Graph) -> Verdict:
    return _equalities(verdict, {"gp_t": _engines("gp_t", g)})


@statement("S2", "graph", "outer general position number equals the clique number of the strong resolving graph")
def check_s2(verdict, g: Graph) -> Verdict:
    return _equalities(verdict, {"gp_o": _engines("gp_o", g)})


@statement("S3", "graph", "dual sets are exactly general position sets with convex complement (all subsets, n<=6)",
           SUBSET_SWEEP)
def check_s3(verdict, g: Graph) -> Verdict:
    dm = distances(g)
    full = (1 << g.n) - 1
    for xmask in range(full + 1):
        dual = positions._is_dual_mask(dm, xmask)
        char = positions._is_gp_mask(dm, xmask) and positions.is_convex(
            dm, from_mask(~xmask & full)
        )
        if dual != char:
            return verdict("fails", lhs=dual, rhs=char,
                           counterexample=sorted(from_mask(xmask)))
    return verdict("holds", lhs=full + 1, rhs=full + 1, note="subsets checked")


@statement("S4", "graph", "clique numbers of the full and pruned strong resolving graphs agree with gp_o",
           NOT_K1)
def check_s4(verdict, g: Graph) -> Verdict:
    pruned, _ = resolving.prune_isolated(resolving.strong_resolving_graph(g))
    lhs = _number("gp_o", g)
    rhs, _ = cliques.max_clique(pruned)
    return _equalities(verdict, {"gp_o": (lhs, rhs)})


@statement("S6", "graph", "diameter-2 graphs: gp_o equals the independence number after removing twin edges",
           DIAM_2)
def check_s6(verdict, g: Graph) -> Verdict:
    lhs = _number("gp_o", g)
    gtt = remove_true_twin_edges(g)
    checks = {"alpha_form": (lhs, cliques.independence_number(gtt)[0])}
    if _twin_free(g):
        checks["twin_free_alpha"] = (lhs, cliques.independence_number(g)[0])
    omega_form = cliques.max_clique(gtt)[0]
    note = f"omega_form_agrees={omega_form == lhs}"
    return _equalities(verdict, checks, note=note)


@statement("S7", "graph", "gp_o is at least the (diam-1)-independence number", DIAM_AT_LEAST_2)
def check_s7(verdict, g: Graph) -> Verdict:
    lhs = _number("gp_o", g)
    rhs = cliques.alpha_k(g, distances(g).diameter - 1)[0]
    return _holds_if(verdict, lhs >= rhs, lhs, rhs)


@statement("S8", "fixed", "sharpness families: subdivided stars and clique-with-paths graphs")
def check_s8(verdict) -> list[Verdict]:
    out = []
    for spec in ("subdivided_star:2,1", "subdivided_star:3,1", "subdivided_star:3,2",
                 "clique_paths:2,1", "clique_paths:3,1", "clique_paths:3,2"):
        g = _family(spec)
        n1 = basic_counts(g)[1]
        akm1 = cliques.alpha_k(g, distances(g).diameter - 1)[0]
        out.append(_equalities(partial(verdict, spec), {
            "gp_o_vs_leaves": (_number("gp_o", g), n1),
            "alpha_km1_vs_leaves": (akm1, n1),
        }))
    return out


@statement("S15", "graph", "twin-free diameter-2 graphs: gp_o of the strong square equals its independence number",
           TWIN_FREE, DIAM_2, strong=36)
def check_s15(verdict, g: Graph, pg: ProductGraph) -> Verdict:
    lhs = _number("gp_o", pg.graph)
    rhs = cliques.independence_number(pg.graph)[0]
    return _equalities(verdict, {"gp_o_square_vs_alpha": (lhs, rhs)})


@statement("S17", "fixed", "gp_d of odd cycles with a pendant vertex is 3")
def check_s17(verdict) -> list[Verdict]:
    """gp_d of the 5- and 7-cycle with a pendant vertex against the claimed 3.

    The claim holds only for n = 3 and n = 5.  Both engines and a networkx
    brute force over all subsets give gp_d(``cycle_plus:n``) = 3, 2, 3, 1,
    1, 1, 1, 1, 1, 1, 1 for n = 3, 4, ..., 13.  Proof that the value is 1
    for n >= 6: the cycle is isometric and the pendant vertex is never inside
    a geodesic between cycle vertices, so for a dual set X the cycle
    vertices outside X form a convex set of C_n.  A convex proper subset of
    C_n is empty or an arc of at most ceil(n/2) vertices, so if X meets the
    cycle it contains at least floor(n/2) >= 3 consecutive cycle vertices,
    whose middle one lies on the unique geodesic between the other two; X is
    then not in general position.  Hence X is a subset of {pendant}, and
    {pendant} is dual.

    The catalog keeps the claimed value 3, so the ``cycle_plus:7`` verdict is
    a deliberate ``fails`` with lhs 1 and rhs 3.
    """
    out = []
    for n in (5, 7):
        spec = f"cycle_plus:{n}"
        g = _family(spec)
        out.append(_equalities(partial(verdict, spec), {"gp_d": (_number("gp_d", g), 3)}))
    return out


@statement("S21", "graph", "clique identities for the distance>=2-or-twins graph", ORDER_2)
def check_s21(verdict, g: Graph) -> Verdict:
    g2 = resolving.g2bar(g)
    omega_g2 = cliques.max_clique(g2)[0]
    checks: dict[str, tuple] = {}
    if _no_universal(g):
        pruned, _ = resolving.prune_isolated(resolving.strong_resolving_graph(_cone(g)))
        assert pruned is not None
        checks["i"] = (omega_g2, cliques.max_clique(pruned)[0])
    if distances(g).diameter <= 2:
        # Neither is empty: a diametral pair is MMD, and g2bar joins a pair at
        # distance 2 or, when g is complete, a true-twin pair.
        pruned_g2, _ = resolving.prune_isolated(g2)
        pruned_sr, _ = resolving.prune_isolated(resolving.strong_resolving_graph(g))
        assert pruned_g2 is not None and pruned_sr is not None
        checks["ii"] = (cliques.max_clique(pruned_g2)[0], cliques.max_clique(pruned_sr)[0])
    if _twin_free(g):
        checks["iii"] = (omega_g2, cliques.independence_number(g)[0])
    return _equalities(verdict, checks)


# ---------------------------------------------------------------------------
# statement checkers (graph pairs, strong product)


@statement("S5", "pair", "restriction to an isometric layer preserves all four properties", strong=16)
def check_s5(verdict, g: Graph, h: Graph, pg: ProductGraph) -> Verdict:
    dm = distances(pg.graph)
    sets = {key: positions.invariant(key, pg.graph)[1] for key in positions.INVARIANTS}
    # The G-layer at b induces G under a -> (a, b), the H-layer at a induces
    # H under b -> (a, b); a layer is isometric when its rows of the product
    # distances are the factor's distances.
    layers = [(distances(g), [pg.encode(a, b) for a in range(g.n)]) for b in range(h.n)]
    layers += [(distances(h), [pg.encode(a, b) for b in range(h.n)]) for a in range(g.n)]
    checked = 0
    for dm_factor, labels in layers:
        if [[dm.dist[u][v] for v in labels] for u in labels] != dm_factor.dist:
            return verdict("fails", counterexample=labels, note="layer is not isometric")
        for key, X in sets.items():
            restricted = [i for i, u in enumerate(labels) if u in X]
            if not positions.INVARIANTS[key].accepts(dm_factor, to_mask(restricted)):
                return verdict("fails", lhs=key, counterexample=restricted,
                               note="restriction lost the property on a layer")
            checked += 1
    return verdict("holds", lhs=checked, rhs=checked, note="property-layer checks")


@statement("S9", "pair", "simplicial vertices of a strong product are the simplicial pairs", strong=256)
def check_s9(verdict, g: Graph, h: Graph, pg: ProductGraph) -> Verdict:
    lhs = sorted(simplicial_vertices(pg.graph))
    rhs = sorted(
        pg.encode(a, b)
        for a in simplicial_vertices(g)
        for b in simplicial_vertices(h)
    )
    return _equalities(verdict, {"simplicial_set": (lhs, rhs)})


check_s10 = exact("S10", "gp_t of a strong product is the product of simplicial counts", "gp_t",
                  Clause("gp_t", lambda g, h: _s(g) * _s(h)), strong=256)


@statement("S11", "pair", "five-case factor test for mutual maximal distance in strong products",
           strong=256)
def check_s11(verdict, g: Graph, h: Graph, pg: ProductGraph) -> Verdict:
    by_cases = resolving.strong_product_mmd(g, h)
    direct = distances(pg.graph).mmd
    for x, (want, got) in enumerate(zip(by_cases, direct)):
        # the first differing pair (x, y) with y > x
        diff = (want ^ got) >> (x + 1) << (x + 1)
        if diff:
            y = (diff & -diff).bit_length() - 1
            return verdict("fails", lhs=bool(got >> y & 1), rhs=bool(want >> y & 1),
                           counterexample=[list(pg.decode(x)), list(pg.decode(y))])
    pairs = pg.graph.n * (pg.graph.n - 1) // 2
    return verdict("holds", lhs=pairs, rhs=pairs, note="product vertex pairs checked")


@statement("S12", "pair", "outer bounds for strong products: gp_o(G)gp_o(H) <= gp_o <= b(G)b(H)",
           FACTORS_2, strong=256)
def check_s12(verdict, g: Graph, h: Graph, pg: ProductGraph) -> Verdict:
    return _bounds(verdict, *_outer_bounds(g, h, pg.graph))


@statement("S13", "pair", "block-graph factors collapse the outer bounds to equality",
           FACTORS_2, BLOCK_GRAPHS, strong=256)
def check_s13(verdict, g: Graph, h: Graph, pg: ProductGraph) -> Verdict:
    lower, mid, upper = _outer_bounds(g, h, pg.graph)
    return _equalities(verdict, {"lower_vs_mid": (lower, mid), "mid_vs_upper": (mid, upper)})


@statement("S14", "fixed", "gp_o of the strong square of the 5-cycle is 5")
def check_s14(verdict) -> list[Verdict]:
    c5 = _family("cycle:5")
    oracle, char = _engines("gp_o", strong_product(c5, c5).graph)
    return [_equalities(partial(verdict, "strong(cycle:5,cycle:5)"), {
        "characterization": (char, 5),
        "oracle": (oracle, 5),
    })]


@statement("S16", "pair", "dual bounds for strong products (three-term upper bound)", strong=16)
def check_s16(verdict, g: Graph, h: Graph, pg: ProductGraph) -> Verdict:
    mid = _number("gp_d", pg.graph)
    sg, sh = _s(g), _s(h)
    terms = [sg * h.n + sh * g.n - sg * sh, g.n * _number("gp_d", h), h.n * _number("gp_d", g)]
    return _bounds(verdict, sg * sh, mid, min(terms), note=f"upper_terms={terms}")


check_s18 = exact("S18", "gp_d of a complete-by-H strong product is n times gp_d(H)", "gp_d",
                  Clause("gp_d", lambda g, h: g.n * _number("gp_d", h)),
                  requires=(G_COMPLETE,), strong=24)


# ---------------------------------------------------------------------------
# statement checkers (graph pairs, lexicographic product)


@statement("S19", "pair", "simplicial vertices of a lexicographic product (complete vs non-complete H)",
           FACTORS_2, lex=256)
def check_s19(verdict, g: Graph, h: Graph, pg: ProductGraph) -> Verdict:
    lhs = sorted(simplicial_vertices(pg.graph))
    if is_complete(h):
        rhs = sorted(pg.encode(a, b) for a in simplicial_vertices(g) for b in range(h.n))
    else:
        rhs = []
    return _equalities(verdict, {"simplicial_set": (lhs, rhs)})


check_s20 = exact("S20", "gp_t of a lexicographic product (complete vs non-complete H)", "gp_t",
                  Clause("gp_t", lambda g, h: _s(g) * h.n if is_complete(h) else 0),
                  requires=(FACTORS_2,), lex=256)


@statement("S22", "pair", "structure of the pruned strong resolving graph of a lexicographic product",
           FACTORS_2, lex=36)
def check_s22(verdict, g: Graph, h: Graph, pg: ProductGraph) -> Verdict:
    lhs_graph, _ = resolving.prune_isolated(resolving.strong_resolving_graph(pg.graph))
    assert lhs_graph is not None
    omega_lhs = cliques.max_clique(lhs_graph)[0]

    g_sr, _ = resolving.prune_isolated(resolving.strong_resolving_graph(g))
    assert g_sr is not None
    b_g = g_sr.n

    h2 = resolving.g2bar(h)
    # item -> right-hand-side graph, items in order
    rhs: dict[str, Graph] = {}
    if _twin_free(g) and not is_complete(h):
        # Not empty: connected non-complete H has a pair at distance 2, which g2bar joins.
        h2p, _ = resolving.prune_isolated(h2)
        assert h2p is not None
        rhs["i"] = disjoint_union([lexicographic_product(g_sr, h2).graph] + [h2p] * (g.n - b_g))
    if is_complete(h):
        rhs["ii"] = disjoint_union([lexicographic_product(g_sr, h).graph] + [h] * (g.n - b_g))
    if is_complete(g) and _no_universal(h):
        rhs["iii"] = disjoint_union([h2] * g.n)
    if not is_complete(g) and _no_universal(h):
        srs, _ = resolving.tf_boundary_and_srs(g)
        rhs["iv"] = disjoint_union([lexicographic_product(srs, h2).graph] + [h2] * (g.n - srs.n))

    checks = {}
    notes = []
    for item, rhs_graph in rhs.items():
        checks[f"omega_{item}"] = (omega_lhs, cliques.max_clique(rhs_graph)[0])
        if lhs_graph.n <= ISO_MAX_ORDER and rhs_graph.n <= ISO_MAX_ORDER:
            checks[f"iso_{item}"] = (True, brute_force_isomorphic(lhs_graph, rhs_graph))
        else:
            notes.append(f"{item}: isomorphism skipped above {ISO_MAX_ORDER} vertices")
    return _equalities(verdict, checks, note="; ".join(notes))


check_s23 = exact(
    "S23", "gp_o of lexicographic products with a twin-free first factor", "gp_o",
    Clause("i", lambda g, h: _number("gp_o", g) * _number("gp_o", _cone(h)),
           lambda g, h: _no_universal(h)),
    Clause("ii", lambda g, h: _number("gp_o", g) * _number("gp_o", h), _h_diam_2),
    Clause("iii", lambda g, h: _number("gp_o", g) * cliques.independence_number(h)[0],
           lambda g, h: _twin_free(h)),
    requires=(FACTORS_2, G_TWIN_FREE, H_NON_COMPLETE), lex=36)

check_s24 = exact("S24", "gp_o of a lexicographic product with a complete second factor", "gp_o",
                  Clause("gp_o", lambda g, h: h.n * _number("gp_o", g)),
                  requires=(G_ORDER_2, H_COMPLETE_2), lex=36)

check_s25 = exact(
    "S25", "gp_o of a lexicographic product with a complete first factor", "gp_o",
    Clause("diam2", lambda g, h: _number("gp_o", h), _h_diam_2),
    Clause("diam_gt_2", lambda g, h: _number("gp_o", _cone(h)),
           lambda g, h: not _h_diam_2(g, h)),
    requires=(G_COMPLETE_2, H_NO_UNIVERSAL), lex=36)

check_s26 = exact(
    "S26", "gp_o via the SRS graph when the first factor has twins", "gp_o",
    Clause("diam2", lambda g, h: _omega_tf_srs(g) * _number("gp_o", h), _h_diam_2),
    Clause("diam_gt_2", lambda g, h: _omega_tf_srs(g) * _number("gp_o", _cone(h)),
           lambda g, h: not _h_diam_2(g, h)),
    requires=(G_NON_COMPLETE, H_NO_UNIVERSAL), lex=36)

check_s27 = exact(
    "S27", "dual number of lexicographic products (zero case and complete layers)", "gp_d",
    Clause("no_simplicial_zero", lambda g, h: 0,
           lambda g, h: not simplicial_vertices(g) and not simplicial_vertices(h), cap=25),
    Clause("complete_layer_product", lambda g, h: h.n * _number("gp_d", g),
           lambda g, h: is_complete(h), cap=24))


def check_statement(sid: str, instance=None) -> list[Verdict]:
    """Run one statement on one instance (a Graph, a pair, or None for fixed)."""
    if sid not in STATEMENTS:
        raise SpecError(f"unknown statement id {sid!r}")
    st = STATEMENTS[sid]
    if st.arity == "fixed":
        if instance is not None:
            raise SpecError(f"{sid} takes no instance")
        return st.checker()
    if st.arity == "graph":
        if not isinstance(instance, Graph):
            raise SpecError(f"{sid} expects a single graph instance")
        return [st.checker(instance)]
    if not (isinstance(instance, tuple) and len(instance) == 2
            and all(isinstance(g, Graph) for g in instance)):
        raise SpecError(f"{sid} expects a pair of graphs")
    return [st.checker(*instance)]


# ---------------------------------------------------------------------------
# corpora


def enumerate_connected(n: int):
    """All labeled connected graphs of order exactly n, deterministic order."""
    if not 1 <= n <= ENUMERATION_MAX_ORDER:
        raise CapacityError(
            f"exhaustive enumeration supports 1 <= n <= {ENUMERATION_MAX_ORDER}"
        )
    pairs = [(u, v) for v in range(n) for u in range(v)]
    for code in range(1 << len(pairs)):
        rows = [0] * n
        for bit, (u, v) in enumerate(pairs):
            if code >> bit & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        g = Graph(n, tuple(rows))
        if is_connected(g):
            yield g


@dataclass(frozen=True)
class Corpus:
    graphs: tuple[Graph, ...] = ()
    pairs: tuple[tuple[Graph, Graph], ...] = ()

    def derived_pairs(self) -> tuple[tuple[Graph, Graph], ...]:
        """Pairs for pair-arity statements: explicit pairs, else the graph
        stream zipped with its rotation by one."""
        if self.pairs:
            return self.pairs
        gs = self.graphs
        return tuple((gs[i], gs[(i + 1) % len(gs)]) for i in range(len(gs)))

    def derived_graphs(self) -> tuple[Graph, ...]:
        if self.graphs:
            return self.graphs
        return tuple(dict.fromkeys(g for pair in self.pairs for g in pair))


def parse_corpus(spec: str) -> Corpus:
    spec = spec.strip()
    if spec.startswith("exhaustive:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise SpecError(f"bad exhaustive corpus spec {spec!r}") from None
        return Corpus(graphs=tuple(enumerate_connected(n)))
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path, "r", encoding="utf-8") as fh:
            graphs = tuple(parse_graph6(line) for line in fh if line.strip())
        return Corpus(graphs=graphs)
    if spec.startswith("family:"):
        # a comma followed by a family tag starts the next family
        out = [t for t in re.split(r",(?=[a-z_]+:)", spec[len("family:"):]) if t]
        if not out:
            raise SpecError("family corpus names no family")
        return Corpus(graphs=tuple(_family(t) for t in out))
    if spec.startswith("pairs:"):
        body = spec[len("pairs:"):]
        split = re.search(r"x(?=exhaustive:|file:|family:)", body)
        if split is None:
            raise SpecError(f"could not split pair corpus spec {spec!r}")
        left = parse_corpus(body[:split.start()])
        right = parse_corpus(body[split.end():])
        return Corpus(
            pairs=tuple(itertools.product(left.derived_graphs(),
                                          right.derived_graphs()))
        )
    raise SpecError(f"unknown corpus spec {spec!r}")


# ---------------------------------------------------------------------------
# suite runner


def parse_statement_ids(text: str | None) -> list[str] | None:
    """Ids from a comma-separated list such as ``"S1, S2"``; None (every
    statement) for ``None`` or ``"all"``, surrounding whitespace ignored."""
    if text is None or text.strip() == "all":
        return None
    return [s.strip() for s in text.split(",") if s.strip()]


def _run_instance(args):
    sid, payload = args
    return check_statement(sid, payload)


def _run_group(group):
    # Each group starts with every memo empty (distances, products, instance
    # names, invariants), so what it computes does not depend on which groups
    # its pool worker happened to run before.
    clear_memos()
    return [v for task in group for v in _run_instance(task)]


def run_suite(
    corpus: Corpus,
    statement_ids: list[str] | None = None,
    jobs: int = 1,
) -> tuple[list[Verdict], dict]:
    """Run statements over a corpus; verdicts sorted by (statement, instance).

    The unit of work is a group, whose tasks share the per-group memos
    (``graphs.clear_memos``): one corpus graph with its graph statements, one
    explicit pair with its pair statements, or the fixed statements.  In a
    corpus without explicit pairs each graph heads one pair, its rotation
    pair, whose pair statements join the graph's group.  So a graph's
    distances, instance name and cross-checked invariants, and its products
    with theirs, are computed once for all of their statements, and a graph
    that heads many explicit pairs still spreads them over the pool.

    A pool worker sends back each group's verdicts as one list of named
    tuples.  Their instance names are interned, so pickle sends each name
    once per hand-off and this process keeps one copy of it.  The merge puts
    each verdict in its statement's bucket as it arrives, the buckets in
    numeric order of the ids, and sorts each bucket by instance.  The sort
    is stable, so verdicts with equal keys keep the order of their groups.
    """
    if jobs < 1:
        raise SpecError(f"jobs must be at least 1, got {jobs}")
    if statement_ids is None:
        ids = sorted(STATEMENTS, key=lambda s: int(s[1:]))
    elif not statement_ids:
        raise SpecError("no statement ids given")
    else:
        ids = list(dict.fromkeys(statement_ids))
    for sid in ids:
        if sid not in STATEMENTS:
            raise SpecError(f"unknown statement id {sid!r}")
    groups: dict[object, list[tuple[str, object]]] = {}
    for sid in ids:
        st = STATEMENTS[sid]
        if st.arity == "fixed":
            groups.setdefault(None, []).append((sid, None))
        elif st.arity == "graph":
            for g in corpus.derived_graphs():
                groups.setdefault(g, []).append((sid, g))
        else:
            for pair in corpus.derived_pairs():
                key = pair if corpus.pairs else pair[0]
                groups.setdefault(key, []).append((sid, pair))
    buckets: dict[str, list[Verdict]] = {
        sid: [] for sid in sorted(ids, key=lambda s: int(s[1:]))}

    def merge(chunks) -> None:
        for chunk in chunks:
            for v in chunk:
                buckets[v.statement].append(v)

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # Each hand-off holds a future in this process; four groups (about
            # a hundred tasks) keep those few and still reach a second worker
            # from five groups on.
            merge(pool.map(_run_group, groups.values(), chunksize=4))
    else:
        merge(map(_run_group, groups.values()))
    verdicts: list[Verdict] = []
    counts: dict[str, dict[str, int]] = {}
    for sid, bucket in buckets.items():
        if bucket:
            bucket.sort(key=operator.attrgetter("instance"))
            verdicts += bucket
            counts[sid] = dict.fromkeys(("holds", "fails", "precondition-not-met"), 0)
            counts[sid].update(Counter(map(operator.attrgetter("outcome"), bucket)))
    summary = {
        "type": "summary",
        "statements": counts,
        "total": len(verdicts),
        "fails": sum(c["fails"] for c in counts.values()),
    }
    return verdicts, summary
