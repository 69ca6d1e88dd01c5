"""graph6 and plain edge-list serialization.

graph6 (single-byte size form, order <= 62): first byte is n + 63, then the
upper-triangle adjacency bits in column order x(0,1), x(0,2), x(1,2),
x(0,3), ... packed 6 per byte, each byte offset by 63, zero-padded.
Decoding reads the body into one integer and writes each column of bits
straight into the neighbour masks.

Edge-list text: first line "n m", then m lines "u v" with 0-based indices.
"""

from __future__ import annotations

from .errors import CapacityExceededError, InvalidParameterError, ParseError
from .graphs import Graph

GRAPH6_MAX_ORDER = 62

# each 6-bit group with its bits in reverse order
_REVERSED6 = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))


def _triangle_bits(g: Graph) -> list[int]:
    bits = []
    for j in range(1, g.n):
        col = g.nbr[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    return bits


def encode_graph6(g: Graph) -> bytes:
    """Encode ``g`` as a graph6 byte string (order <= 62)."""
    if g.n > GRAPH6_MAX_ORDER:
        raise CapacityExceededError(
            f"graph6 single-byte form is capped at order {GRAPH6_MAX_ORDER}, got {g.n}"
        )
    out = [g.n + 63]
    bits = _triangle_bits(g)
    for at in range(0, len(bits), 6):
        group = bits[at : at + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        out.append(val + 63)
    return bytes(out)


def decode_graph6(data) -> Graph:
    """Decode a graph6 byte (or ASCII) string; inverse of :func:`encode_graph6`."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise ParseError("non-ASCII character in graph6 input", offset=exc.start) from None
    elif not isinstance(data, (bytes, bytearray)):
        raise InvalidParameterError(f"graph6 input must be bytes or str, got {data!r}")
    data = data.strip()
    if not data:
        raise ParseError("empty graph6 input", offset=0)
    n = data[0] - 63
    if not 0 <= n <= GRAPH6_MAX_ORDER:
        raise ParseError(f"bad graph6 size byte {data[0]!r}", offset=0)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 != need:
        off = min(len(data), need + 1)
        raise ParseError(
            f"graph6 body for order {n} needs {need} bytes, got {len(data) - 1}",
            offset=off,
        )
    # the body as one integer whose bit ``at`` is adjacency bit ``at``
    body = 0
    for pos, byte in enumerate(data[1:], start=1):
        val = byte - 63
        if not 0 <= val < 64:
            raise ParseError(f"graph6 byte {byte!r} out of range", offset=pos)
        body |= _REVERSED6[val] << 6 * (pos - 1)
    at = n * (n - 1) // 2
    padding = body >> at
    if padding:
        first = at + (padding & -padding).bit_length() - 1
        raise ParseError("nonzero padding bits", offset=1 + first // 6)
    if n == 0:
        raise ParseError("order-0 graph6 strings are not produced here", offset=0)
    masks = [0] * n
    at = 0
    for j in range(1, n):
        col = masks[j] = body >> at & ((1 << j) - 1)
        bit = 1 << j
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= bit
            col ^= low
        at += j
    return Graph(n, tuple(masks))


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format; raises InvalidParameterError on junk."""
    tokens = text.split()
    if len(tokens) < 2:
        raise InvalidParameterError("edge list needs a header line 'n m'")
    try:
        n, m = int(tokens[0]), int(tokens[1])
        pairs = [int(t) for t in tokens[2:]]
    except ValueError as exc:
        raise InvalidParameterError(f"non-integer token in edge list: {exc}") from exc
    if len(pairs) != 2 * m:
        raise InvalidParameterError(
            f"edge list declares {m} edges but provides {len(pairs) // 2}"
        )
    edges = list(zip(pairs[0::2], pairs[1::2]))
    return Graph.from_edges(n, edges)
