"""graph6 codec: known encodings, round trips, precise error offsets."""

import pytest
from hypothesis import given, settings

from genpos import graph6
from genpos.errors import Graph6Error
from genpos.graph6 import parse_graph6, write_graph6
from genpos.graphs import Graph
from graph_builders import graphs


def test_known_encodings():
    k1 = Graph(1, (0,))
    assert write_graph6(k1) == "@"
    assert parse_graph6("@") == k1

    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert write_graph6(k4) == "C~"
    assert parse_graph6("C~") == k4

    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert write_graph6(c5) == "Dhc"
    assert parse_graph6("Dhc") == c5


@given(g=graphs(1, 12))
@settings(max_examples=200, deadline=None)
def test_round_trip(g):
    assert parse_graph6(write_graph6(g)) == g


def test_rejects_long_form():
    # n = 63 needs 326 payload symbols
    with pytest.raises(Graph6Error, match="truncated payload"):
        parse_graph6("~??~" + "?" * 100)
    # a long-form header must encode 63 <= n <= 258,047
    for header in ("~???", "~??}", "~~??", "~~~~"):
        with pytest.raises(Graph6Error, match="outside 63..258047") as exc:
            parse_graph6(header + "?" * 10)
        assert exc.value.offset == 1
    with pytest.raises(Graph6Error, match="truncated long-form header"):
        parse_graph6("~??")


def test_long_form_header():
    # a whole line for n = 12345 would carry 12.7 M payload symbols
    header = "~" + chr(66) + chr(63) + chr(120)
    assert graph6._header(12345) == header
    assert graph6._parse_order(header) == (12345, 4)
    assert graph6._header(62) == chr(125)
    assert graph6._header(63) == "~??~"


@pytest.mark.parametrize("n", [63, 64, 100])
def test_long_form_round_trip(n):
    pairs = [(u, v) for v in range(n) for u in range(v)]
    g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if i % 3 == 0 or i % 7 == 1])
    line = write_graph6(g)
    assert line[0] == "~" and len(line) == 4 + (len(pairs) + 5) // 6
    assert parse_graph6(line) == g


@pytest.mark.parametrize("n", [1, 2, 5, 62, 63, 64, 100])
def test_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    G = nx.gnp_random_graph(n, 0.3, seed=n)
    g = Graph.from_edges(n, list(G.edges()))
    assert write_graph6(g) == nx.to_graph6_bytes(G, header=False).decode().rstrip("\n")


def test_rejects_empty_and_truncated():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D")  # n=5 needs two payload bytes
    assert exc.value.offset is not None


def test_rejects_out_of_range_bytes():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("C\x01")
    assert exc.value.offset == 1


@pytest.mark.parametrize("text,message", [
    ("?", "bad header byte '?' (byte offset 0)"),
    ("~>??", "header symbol '>' out of range (byte offset 1)"),
])
def test_rejects_bad_header(text, message):
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(text)
    assert str(exc.value) == message


def test_rejects_trailing_garbage():
    with pytest.raises(Graph6Error):
        parse_graph6("C~~")


def test_rejects_nonzero_padding():
    # n=2 uses one edge bit and five padding bits; "A@" sets a padding bit
    assert parse_graph6("A?").num_edges() == 0
    with pytest.raises(Graph6Error):
        parse_graph6("A@")


def test_order_cap():
    from genpos.errors import CapacityError
    from genpos.graph6 import MAX_ORDER

    with pytest.raises(CapacityError):
        write_graph6(Graph(MAX_ORDER + 1, (0,) * (MAX_ORDER + 1)))
