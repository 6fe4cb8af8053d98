"""graph6 reader/writer for 1 <= n <= 258,047.

Format (https://users.cecs.anu.edu.au/~bdm/data/formats.txt): a header
encoding n, then the upper triangle of the adjacency matrix in column-major
order, packed MSB-first into 6-bit groups, each group +63, zero-padded.  The
header is the byte n+63 for n <= 62 (short form), and otherwise byte 126
followed by n as three 6-bit groups, each +63 (long form).  One graph per
line.
"""

from __future__ import annotations

from .errors import CapacityError, Graph6Error
from .graphs import Graph, iter_bits

SHORT_MAX_ORDER = 62
MAX_ORDER = 258_047
LONG_FORM = "~"
# payload symbol <-> its six bits, MSB first
_BITS = {chr(v + 63): f"{v:06b}" for v in range(64)}
_SYMBOL = {bits: ch for ch, bits in _BITS.items()}


def _header(n: int) -> str:
    if n <= SHORT_MAX_ORDER:
        return chr(n + 63)
    return LONG_FORM + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))


def _parse_order(line: str) -> tuple[int, int]:
    """Order encoded by the header of ``line`` and the header's length."""
    if line[0] != LONG_FORM:
        n = ord(line[0]) - 63
        if not 1 <= n <= SHORT_MAX_ORDER:
            raise Graph6Error(f"bad header byte {line[0]!r}", 0)
        return n, 1
    if len(line) < 4:
        raise Graph6Error("truncated long-form header", len(line))
    n = 0
    for i in range(1, 4):
        val = ord(line[i]) - 63
        if not 0 <= val < 64:
            raise Graph6Error(f"header symbol {line[i]!r} out of range", i)
        n = n << 6 | val
    if not SHORT_MAX_ORDER < n <= MAX_ORDER:
        raise Graph6Error(
            f"long-form header encodes n = {n}, outside "
            f"{SHORT_MAX_ORDER + 1}..{MAX_ORDER}", 1
        )
    return n, 4


def parse_graph6(text: str) -> Graph:
    line = text.rstrip("\n")
    if not line:
        raise Graph6Error("empty graph6 line", 0)
    n, start = _parse_order(line)
    nbits = n * (n - 1) // 2
    nsymbols = (nbits + 5) // 6
    payload = line[start:]
    if len(payload) < nsymbols:
        raise Graph6Error(f"truncated payload: expected {nsymbols} symbols", len(line))
    if len(payload) > nsymbols:
        raise Graph6Error("trailing garbage after payload", start + nsymbols)
    try:
        bits = "".join([_BITS[ch] for ch in payload])
    except KeyError:
        i = next(i for i, ch in enumerate(payload) if ch not in _BITS)
        raise Graph6Error(f"payload symbol {payload[i]!r} out of range", start + i) from None
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits", len(line) - 1)
    rows = [0] * n
    pos = 0
    for col in range(1, n):
        # rows 0..col-1 of this column, row 0 first
        upper = int(bits[pos:pos + col][::-1], 2)
        pos += col
        rows[col] = upper
        for row in iter_bits(upper):
            rows[row] |= 1 << col
    return Graph(n, tuple(rows))


def write_graph6(g: Graph) -> str:
    n = g.n
    if n > MAX_ORDER:
        raise CapacityError(f"graph6 supports n <= {MAX_ORDER}, got {n}")
    adj = g.adj
    # column col holds rows 0..col-1, row 0 first: bin(...) is "0b1" and then
    # the low col bits of adj[col], which [:2:-1] reverses
    bits = "".join([bin(adj[col] & ((1 << col) - 1) | 1 << col)[:2:-1] for col in range(1, n)])
    bits += "00000"
    return _header(n) + "".join([_SYMBOL[bits[pos:pos + 6]] for pos in range(0, len(bits) - 5, 6)])
