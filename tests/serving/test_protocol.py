"""Frame codec, graph payloads, and membership masks."""

import asyncio
import json
import socket

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import random_regularish_ugraph
from repro.graphs.ugraph import UGraph
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    ServingError,
    canonical_json,
    encode_frame,
    graph_from_payload,
    graph_oid,
    graph_payload,
    mask_to_row,
    payload_bytes_digest,
    read_envelope,
    side_mask,
    sock_recv,
)
from tests.serving.conftest import frame_with_header


def _sock_roundtrip(wire):
    ours, theirs = socket.socketpair()
    with ours, theirs:
        theirs.sendall(wire)
        return sock_recv(ours)


class TestCanonicalJson:
    def test_sorted_keys_and_minimal_separators(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == b'{"a":[1,2],"b":1}'

    def test_nan_refused(self):
        with pytest.raises(ProtocolError):
            canonical_json({"x": float("nan")})

    def test_unserializable_refused(self):
        with pytest.raises(ProtocolError):
            canonical_json({"x": object()})


class TestFrameCodec:
    def _roundtrip(self, wire):
        async def decode():
            reader = asyncio.StreamReader()
            reader.feed_data(wire)
            reader.feed_eof()
            return await read_envelope(reader)

        return asyncio.run(decode())

    def test_roundtrip_preserves_fields(self):
        wire, sent = encode_frame("c", "s", "serve.ping", {"rid": 7})
        received = self._roundtrip(wire)
        assert received.sender == "c"
        assert received.receiver == "s"
        assert received.kind == "serve.ping"
        assert received.payload == {"rid": 7}
        assert received.digest == sent.digest
        assert received.bits == sent.bits

    def test_bits_is_eight_times_payload_len(self):
        _, sent = encode_frame("c", "s", "k", {"a": 1})
        assert sent.bits == 8 * len(canonical_json({"a": 1}))

    def test_digest_is_sha256_of_payload_bytes(self):
        _, sent = encode_frame("c", "s", "k", {"a": 1})
        assert sent.digest == payload_bytes_digest(canonical_json({"a": 1}))

    def test_corrupted_payload_fails_digest_check(self):
        wire, _ = encode_frame("c", "s", "k", {"value": 100})
        corrupt = wire[:-2] + b"1}"  # same length, different bytes
        with pytest.raises(ProtocolError, match="digest mismatch"):
            self._roundtrip(corrupt)

    def test_truncated_frame_raises(self):
        wire, _ = encode_frame("c", "s", "k", {"a": 1})
        with pytest.raises(ProtocolError, match="mid-frame"):
            self._roundtrip(wire[: len(wire) - 3])

    def test_clean_eof_returns_none(self):
        assert self._roundtrip(b"") is None

    def test_oversized_frame_refused_on_encode(self):
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            encode_frame("c", "s", "k", {"blob": "x" * (MAX_FRAME_BYTES + 16)})

    def test_header_length_bound_checked_before_allocation(self):
        async def decode():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\xff\xff\xff\xff")
            reader.feed_eof()
            return await read_envelope(reader)

        with pytest.raises(ProtocolError, match="out of range"):
            asyncio.run(decode())

    @pytest.mark.parametrize("bits", ["x", None, [1]], ids=["str", "null", "list"])
    def test_non_integer_bits_fails_decode(self, bits):
        wire = frame_with_header(bits=bits)
        with pytest.raises(ProtocolError, match="bits"):
            self._roundtrip(wire)
        with pytest.raises(ProtocolError, match="bits"):
            _sock_roundtrip(wire)


class TestGraphPayload:
    def test_ugraph_roundtrip_preserves_order(self):
        g = random_regularish_ugraph(24, 4, rng=1)
        payload = graph_payload(g)
        back = graph_from_payload(payload)
        assert isinstance(back, UGraph)
        assert list(back.nodes()) == list(g.nodes())
        assert list(back.edges()) == [
            (u, v, float(w)) for u, v, w in g.edges()
        ]

    def test_digraph_roundtrip(self):
        g = DiGraph()
        g.add_edge("a", "b", 2.0)
        g.add_edge("b", "a", 1.0)
        back = graph_from_payload(graph_payload(g))
        assert isinstance(back, DiGraph)
        assert list(back.edges()) == list(g.edges())

    def test_numpy_labels_coerced_to_json_types(self):
        g = UGraph()
        g.add_edge(np.int64(0), np.int64(1), 1.0)
        payload = graph_payload(g)
        json.dumps(payload, allow_nan=False)  # must not raise
        assert all(isinstance(v, int) for v in payload["nodes"])

    def test_oid_is_content_address(self):
        g = random_regularish_ugraph(16, 4, rng=2)
        assert graph_oid(graph_payload(g)) == graph_oid(graph_payload(g))
        other = random_regularish_ugraph(16, 4, rng=3)
        assert graph_oid(graph_payload(g)) != graph_oid(graph_payload(other))
        # Pinned bytes: clients and caches key graphs by these oids.
        d = DiGraph()
        d.add_edge("a", "b", 1.0)
        d.add_edge("b", "c", 2.5)
        assert graph_oid(graph_payload(d)) == (
            "b6208f55b9d449a02f2fe599f5c0decf021830b883fb23c783fc0e738ef33875"
        )
        u = UGraph(edges=[(0, 1, 1.0), (1, 2, 3.0)])
        assert graph_oid(graph_payload(u)) == (
            "d1894deaa462bca9057ca4a69e5b4aa538301a4d0de7564688ccb9a5611d6972"
        )

    def test_malformed_payload_raises(self):
        with pytest.raises(ProtocolError, match="malformed graph payload"):
            graph_from_payload({"nodes": []})

    @pytest.mark.parametrize(
        "nodes,edges",
        [
            ([0, 1], [[0, 1]]),
            ([0, 1], [[0, 1, "w"]]),
            ([0, 1], [[0, 1, None]]),
            ([0, 1], [5]),
            ([[0], 1], []),
            (5, []),
        ],
        ids=[
            "edge_arity", "weight_str", "weight_null", "edge_int",
            "unhashable_node", "nodes_int",
        ],
    )
    def test_malformed_nodes_or_edges_raise(self, nodes, edges):
        with pytest.raises(ProtocolError, match="malformed graph payload"):
            graph_from_payload(
                {"directed": False, "nodes": nodes, "edges": edges}
            )

    def test_reconstruction_freezes_to_identical_csr(self):
        g = random_regularish_ugraph(32, 4, rng=4)
        back = graph_from_payload(graph_payload(g))
        a, b = g.freeze(), back.freeze()
        member = a.membership_matrix(
            [frozenset(list(g.nodes())[: k + 1]) for k in range(5)]
        )
        np.testing.assert_array_equal(
            a.cut_weights_stable(member), b.cut_weights_stable(member)
        )


class TestSideMask:
    def test_roundtrip(self):
        index = {f"v{i}": i for i in range(19)}
        side = ["v0", "v7", "v18"]
        row = mask_to_row(side_mask(index, side, 19), 19)
        expect = np.zeros(19, dtype=bool)
        expect[[0, 7, 18]] = True
        np.testing.assert_array_equal(row, expect)

    def test_mask_is_ceil_n_over_8_bytes(self):
        index = {i: i for i in range(19)}
        assert len(side_mask(index, [0], 19)) == 2 * ((19 + 7) // 8)

    def test_unknown_node_raises(self):
        with pytest.raises(ServingError, match="unknown node"):
            side_mask({"a": 0}, ["zzz"], 1)

    def test_wrong_length_mask_raises(self):
        with pytest.raises(ProtocolError, match="bytes"):
            mask_to_row("00", 19)

    def test_malformed_hex_raises(self):
        with pytest.raises(ProtocolError, match="malformed side mask"):
            mask_to_row("zz", 4)
