"""graph6 codec and edge-list text format."""

import random

import pytest

from qminlab import (
    CapacityExceededError,
    Graph,
    InvalidParameterError,
    ParseError,
    complete_graph,
    cycle_graph,
    decode_graph6,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
    path_graph,
)


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_p2_hand_packed():
    # n=2 -> byte 65 'A'; single bit x(0,1)=1 padded to 100000 -> 32+63=95 '_'
    assert encode_graph6(path_graph(2)) == b"A_"


def test_k3_hand_packed():
    # bits 111 padded to 111000 = 56 -> 56+63=119 'w'
    assert encode_graph6(complete_graph(3)) == b"Bw"


def test_decode_inverse():
    assert decode_graph6(b"A_") == path_graph(2)
    assert decode_graph6("Bw") == complete_graph(3)


def test_round_trip_random():
    rng = random.Random(97)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 20))
        assert decode_graph6(encode_graph6(g)) == g
    for n in (40, 55, 62):
        g = random_graph(rng, n, p=0.2)
        assert decode_graph6(encode_graph6(g)) == g


def test_round_trip_named():
    for g in (cycle_graph(5), complete_graph(7), path_graph(13)):
        assert decode_graph6(encode_graph6(g)) == g


def test_encode_order_cap():
    with pytest.raises(CapacityExceededError):
        encode_graph6(Graph.from_edges(63, []))


def test_decode_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        decode_graph6(b"")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        decode_graph6(bytes([1, 95]))
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        decode_graph6(b"B")  # order 3 needs one body byte
    assert err.value.offset == 1
    with pytest.raises(ParseError) as err:
        decode_graph6(b"Bw" + b"w")  # too long
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        decode_graph6(bytes([66, 30]))  # body byte below 63
    assert err.value.offset == 1
    with pytest.raises(ParseError) as err:
        decode_graph6("B\u00e9")  # not a graph6 byte, though "B?" would decode
    assert err.value.offset == 1


def test_decode_rejects_padding_bits():
    # order 2 has one adjacency bit; set a padding bit instead
    with pytest.raises(ParseError):
        decode_graph6(bytes([65, 63 + 0b000100]))


def test_edge_list_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12))
        assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_format_shape():
    text = format_edge_list(cycle_graph(3))
    assert text == "3 3\n0 1\n0 2\n1 2\n"


def test_edge_list_errors():
    with pytest.raises(InvalidParameterError):
        parse_edge_list("3\n")
    with pytest.raises(InvalidParameterError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(InvalidParameterError):
        parse_edge_list("3 1\n0 x\n")
    with pytest.raises(InvalidParameterError):
        parse_edge_list("2 1\n0 5\n")
