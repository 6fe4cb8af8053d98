"""Family generators: orders, leaf counts, diameters, spec validation."""

import pytest

from genpos.errors import SpecError
from genpos.families import parse_family
from genpos.graphs import basic_counts, diameter, is_complete, is_connected
from graph_builders import family


def test_path_cycle_complete_star():
    assert family("path:1").n == 1
    p5 = family("path:5")
    assert p5.num_edges() == 4 and diameter(p5) == 4
    c6 = family("cycle:6")
    assert c6.num_edges() == 6 and diameter(c6) == 3
    assert is_complete(family("complete:4"))
    star = family("star:3")
    n, leaves, delta = basic_counts(star)
    assert (n, leaves, delta) == (4, 3, 3)


@pytest.mark.parametrize("s,r", [(2, 1), (3, 1), (3, 2), (4, 0)])
def test_subdivided_star_shape(s, r):
    g = family(f"subdivided_star:{s},{r}")
    n, leaves, _ = basic_counts(g)
    assert n == 1 + s * (r + 1)
    assert leaves == s
    assert diameter(g) == 2 * r + 2


@pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2), (4, 1)])
def test_clique_paths_shape(n, t):
    g = family(f"clique_paths:{n},{t}")
    order, leaves, _ = basic_counts(g)
    assert order == n * (t + 1)
    assert leaves == n
    assert diameter(g) == 2 * t + 1


def test_cycle_plus_shape():
    g = family("cycle_plus:5")
    order, leaves, _ = basic_counts(g)
    assert order == 6 and leaves == 1
    assert g.degree(0) == 3


def test_join_spec():
    g = family("join:path:1+cycle:4")
    assert g.n == 5
    assert g.degree(0) == 4


def test_random_is_deterministic_and_connected():
    a = family("random:8,400,7")
    b = family("random:8,400,7")
    assert a == b and is_connected(a)
    assert family("random:8,400,8") != a  # the seed picks the graph


def test_spec_round_trip_str():
    for text in ("clique_paths:3,2", "join:cycle:3+path:2"):
        spec = parse_family(text)
        assert str(spec) == text
        assert parse_family(str(spec)) == spec
    assert repr(parse_family("join:cycle:3+path:2")) == (
        "FamilySpec(tag='join', params=(), joined=("
        "FamilySpec(tag='cycle', params=(3,), joined=None), "
        "FamilySpec(tag='path', params=(2,), joined=None)))")


@pytest.mark.parametrize("bad", [
    "cycle:2", "path:0", "subdivided_star:1,1", "clique_paths:1,1",
    "cycle_plus:2", "random:5,0,1", "random:5,1000,1",
    "nosuch:3", "cycle", "cycle:x", "subdivided_star:3",
])
def test_rejects_bad_specs(bad):
    with pytest.raises(SpecError):
        parse_family(bad)


def test_join_requires_two_parts():
    with pytest.raises(SpecError):
        parse_family("join:path:3")
