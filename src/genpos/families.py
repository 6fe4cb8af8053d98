"""Named graph family generators and their textual specs.

A family spec is ``tag:params`` with integer parameters, e.g. ``cycle:5``,
``subdivided_star:3,1`` (star with every edge subdivided that many times),
``clique_paths:3,2`` (a path of that many vertices hung off every clique
vertex), ``cycle_plus:5`` (a cycle with one pendant vertex), ``random:8,300,7``
(n, edge probability in thousandths, seed; resampled until connected) and
``join:a:1+b:2`` (join of two non-join specs).  Generation is deterministic.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import SpecError
from .graphs import Graph, is_connected, join

_RANDOM_ATTEMPTS = 10_000


class FamilySpec(NamedTuple):
    tag: str
    params: tuple[int, ...] = ()
    joined: tuple["FamilySpec", "FamilySpec"] | None = None

    def __str__(self) -> str:
        if self.tag == "join":
            assert self.joined is not None
            return f"join:{self.joined[0]}+{self.joined[1]}"
        return f"{self.tag}:{','.join(str(p) for p in self.params)}"


def parse_family(text: str) -> FamilySpec:
    text = text.strip()
    if text.startswith("join:"):
        body = text[len("join:"):]
        if "+" not in body:
            raise SpecError(f"join spec needs two '+'-separated parts: {text!r}")
        left, right = body.split("+", 1)
        return FamilySpec("join", joined=(parse_family(left), parse_family(right)))
    if ":" not in text:
        raise SpecError(f"family spec needs 'tag:params': {text!r}")
    tag, _, rest = text.partition(":")
    try:
        params = tuple(int(p) for p in rest.split(","))
    except ValueError:
        raise SpecError(f"non-integer parameter in family spec {text!r}") from None
    spec = FamilySpec(tag, params)
    _validate(spec)
    return spec


def _validate(spec: FamilySpec) -> None:
    tag, p = spec.tag, spec.params
    if tag not in _FAMILIES:
        raise SpecError(f"unknown family tag {tag!r}")
    arity, in_range, _ = _FAMILIES[tag]
    if len(p) != arity:
        raise SpecError(f"family {tag!r} expects {arity} parameter(s), got {len(p)}")
    if not in_range(*p):
        raise SpecError(f"parameters out of range for family spec {spec}")


def generate(spec: FamilySpec) -> Graph:
    if spec.tag == "join":
        assert spec.joined is not None
        return join(generate(spec.joined[0]), generate(spec.joined[1]))
    _validate(spec)
    return _FAMILIES[spec.tag][2](*spec.params)


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _star(s: int) -> Graph:
    return Graph.from_edges(s + 1, [(0, i) for i in range(1, s + 1)])


def _subdivided_star(s: int, r: int) -> Graph:
    # Center 0; each of the s rays is a path of r inner vertices ending in a leaf.
    edges = []
    nxt = 1
    for _ in range(s):
        prev = 0
        for _ in range(r + 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


def _clique_paths(n: int, t: int) -> Graph:
    # Vertices 0..n-1 form the clique; each clique vertex gets a pendant path P_t.
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    nxt = n
    for v in range(n):
        prev = v
        for _ in range(t):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


def _cycle_plus(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, n)]
    return Graph.from_edges(n + 1, edges)


def _random_connected(n: int, p_milli: int, seed: int) -> Graph:
    rng = random.Random(seed)
    p = p_milli / 1000.0
    for _ in range(_RANDOM_ATTEMPTS):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g
    raise SpecError(
        f"random:{n},{p_milli},{seed} produced no connected graph "
        f"in {_RANDOM_ATTEMPTS} attempts"
    )


# tag -> (parameter count, range check, builder); "join" is parsed separately.
_FAMILIES = {
    "path": (1, lambda n: n >= 1, _path),
    "cycle": (1, lambda n: n >= 3, _cycle),
    "complete": (1, lambda n: n >= 1, _complete),
    "star": (1, lambda s: s >= 1, _star),
    "subdivided_star": (2, lambda s, r: s >= 2 and r >= 0, _subdivided_star),
    "clique_paths": (2, lambda n, t: n >= 2 and t >= 1, _clique_paths),
    "cycle_plus": (1, lambda n: n >= 3, _cycle_plus),
    "random": (3, lambda n, p, _seed: n >= 1 and 0 < p < 1000, _random_connected),
}
