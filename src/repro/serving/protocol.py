"""Wire framing for the serving tier: WireMessage semantics over TCP.

One frame is one :class:`repro.obs.capture.WireMessage` made concrete:

* a 4-byte big-endian header length,
* a JSON header carrying exactly the capture's compared fields —
  ``sender``, ``receiver``, ``kind``, ``bits``, ``digest`` — plus
  ``payload_len``,
* ``payload_len`` bytes of *canonical JSON* payload (sorted keys, no
  whitespace, ``allow_nan=False``).

``digest`` is SHA-256 over the payload bytes and is verified on every
decode, so a served transcript diff-checks against an in-process one
with :func:`repro.obs.capture.first_divergence` and a corrupted or
truncated frame fails loudly instead of decoding garbage.  ``bits`` is
``8 * payload_len`` — the same byte-priced currency the rest of the
repository charges.

Graphs cross the wire as ordered node/edge lists
(:func:`graph_payload` / :func:`graph_from_payload`): insertion order
is preserved end to end, so the CSR snapshot the server freezes interns
nodes and lays out edge arrays identically to the client's own — the
precondition for byte-identical cut values.  :func:`graph_oid`
content-addresses that payload (SHA-256 over git's blob framing), so a
graph registered twice (or by two clients) is one cache entry.  Cut
sides travel as packed little-bit-order membership masks
(:func:`side_mask`), n/8 bytes instead of a label list.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.errors import ProtocolError, ReproError
from repro.graphs.digraph import DiGraph
from repro.graphs.ugraph import UGraph
from repro.obs import capture as _capture
from repro.obs import live as _live
from repro.obs.core import STATE as _OBS

#: Frames larger than this are refused on both ends (a length prefix
#: must never become an allocation oracle).
MAX_FRAME_BYTES = 64 << 20

#: struct format of the header length prefix.
_LEN = struct.Struct(">I")


class ServingError(ReproError):
    """A serving request failed server-side (bad op, unknown oid, ...)."""


def canonical_json(obj: Any) -> bytes:
    """Deterministic JSON bytes: sorted keys, minimal separators."""
    try:
        return json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"payload is not canonically serializable: {exc}") from exc


def payload_bytes_digest(payload: bytes) -> str:
    """SHA-256 hex of the encoded payload (the frame's ``digest`` field)."""
    return hashlib.sha256(payload).hexdigest()


@dataclass
class Envelope:
    """One decoded frame — the WireMessage fields plus the live payload."""

    sender: str
    receiver: str
    kind: str
    payload: Any
    bits: int
    digest: str
    meta: Dict[str, Any] = field(default_factory=dict)


def encode_frame(
    sender: str, receiver: str, kind: str, payload: Any
) -> Tuple[bytes, Envelope]:
    """Encode one frame; returns ``(wire_bytes, envelope)``.

    The envelope mirrors what the peer will decode — callers record it
    into the wire capture so both ends of a connection hold
    digest-comparable transcripts.
    """
    body = canonical_json(payload)
    digest = payload_bytes_digest(body)
    header = canonical_json(
        {
            "sender": sender,
            "receiver": receiver,
            "kind": kind,
            "bits": 8 * len(body),
            "digest": digest,
            "payload_len": len(body),
        }
    )
    if len(header) + len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(header) + len(body)} bytes exceeds "
            f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}"
        )
    envelope = Envelope(
        sender=sender,
        receiver=receiver,
        kind=kind,
        payload=payload,
        bits=8 * len(body),
        digest=digest,
    )
    return _LEN.pack(len(header)) + header + body, envelope


def _decode_header(raw: bytes) -> Dict[str, Any]:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return header


def _finish_decode(header: Dict[str, Any], body: bytes) -> Envelope:
    digest = payload_bytes_digest(body)
    if digest != header.get("digest"):
        raise ProtocolError(
            f"frame digest mismatch: header says {header.get('digest')!r}, "
            f"payload hashes to {digest!r}"
        )
    bits = header.get("bits", 8 * len(body))
    if type(bits) is not int:
        raise ProtocolError(f"frame header bits must be an integer, got {bits!r}")
    try:
        payload = json.loads(body.decode("utf-8")) if body else None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    return Envelope(
        sender=str(header.get("sender", "?")),
        receiver=str(header.get("receiver", "?")),
        kind=str(header.get("kind", "?")),
        payload=payload,
        bits=bits,
        digest=digest,
    )


def _payload_len(header: Dict[str, Any]) -> int:
    try:
        length = int(header["payload_len"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError("frame header lacks a payload_len") from exc
    if length < 0 or length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame payload_len {length} out of range")
    return length


def _header_len(prefix: bytes) -> int:
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame header length {length} out of range")
    return length


# ----------------------------------------------------------------------
# asyncio stream I/O (the daemon and the async client)
# ----------------------------------------------------------------------


async def read_envelope(reader: asyncio.StreamReader) -> Optional[Envelope]:
    """Read one frame; ``None`` on clean EOF before any frame byte."""
    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from exc
    try:
        header = _decode_header(await reader.readexactly(_header_len(prefix)))
        body = await reader.readexactly(_payload_len(header))
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return _finish_decode(header, body)


async def write_envelope(
    writer: asyncio.StreamWriter,
    sender: str,
    receiver: str,
    kind: str,
    payload: Any,
) -> Envelope:
    """Encode, send, and drain one frame; returns its envelope."""
    wire, envelope = encode_frame(sender, receiver, kind, payload)
    writer.write(wire)
    await writer.drain()
    return envelope


# ----------------------------------------------------------------------
# blocking socket I/O (the sync client)
# ----------------------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def sock_send(
    sock: socket.socket, sender: str, receiver: str, kind: str, payload: Any
) -> Envelope:
    """Blocking counterpart of :func:`write_envelope`."""
    wire, envelope = encode_frame(sender, receiver, kind, payload)
    sock.sendall(wire)
    return envelope


def sock_recv(sock: socket.socket) -> Envelope:
    """Blocking counterpart of :func:`read_envelope` (EOF is an error)."""
    header = _decode_header(
        _recv_exact(sock, _header_len(_recv_exact(sock, _LEN.size)))
    )
    return _finish_decode(header, _recv_exact(sock, _payload_len(header)))


# ----------------------------------------------------------------------
# capture integration
# ----------------------------------------------------------------------


def capture_envelope(envelope: Envelope, **meta: Any) -> None:
    """Record one sent/received frame into the active wire captures.

    Uses the frame's precomputed payload digest (the bytes that
    actually crossed the wire) rather than re-canonicalising the
    decoded object, so both peers record the identical message and the
    two transcripts diff clean.  Mirrors
    :func:`repro.obs.capture.record`'s gating and live-bus tee.
    """
    if not _OBS.enabled or _capture.active() is None:
        return
    message = None
    for cap in _capture._ACTIVE:
        message = cap.record(
            envelope.sender,
            envelope.receiver,
            envelope.kind,
            envelope.bits,
            digest=envelope.digest,
            **meta,
        )
    if message is not None:
        _live.publish(message.as_record())


# ----------------------------------------------------------------------
# graph and side payloads
# ----------------------------------------------------------------------


def _json_label(label: Any) -> Any:
    """Coerce a node label to its JSON round-trip form.

    Numpy scalars (the generators label nodes with ``np.int64``) become
    native ints/floats; hashing is unchanged (``hash(np.int64(5)) ==
    hash(5)``), so client-side interning built from the coerced payload
    still resolves the original labels.
    """
    if isinstance(label, np.integer):
        return int(label)
    if isinstance(label, np.floating):
        return float(label)
    return label


def graph_payload(graph) -> Dict[str, Any]:
    """A graph as an ordered, JSON-canonical payload.

    Node and edge order follow the graph's own iteration order — the
    order ``freeze()`` interns — so a reconstruction freezes to a CSR
    snapshot with identical arrays.  Labels must round-trip through
    JSON (ints and strings do; tuples would come back as lists).
    """
    directed = isinstance(graph, DiGraph) or (
        not isinstance(graph, UGraph) and hasattr(graph, "iter_successors")
    )
    return {
        "directed": bool(directed),
        "nodes": [_json_label(v) for v in graph.nodes()],
        "edges": [
            [_json_label(u), _json_label(v), float(w)]
            for u, v, w in graph.edges()
        ],
    }


def graph_from_payload(payload: Dict[str, Any]):
    """Inverse of :func:`graph_payload`; returns a DiGraph or UGraph."""
    try:
        directed = bool(payload["directed"])
        nodes = payload["nodes"]
        edges = payload["edges"]
    except (TypeError, KeyError) as exc:
        raise ProtocolError(f"malformed graph payload: {exc}") from exc
    graph = DiGraph() if directed else UGraph()
    try:
        graph.add_nodes(nodes)
        for u, v, w in edges:
            graph.add_edge(u, v, float(w))
    except (TypeError, ValueError) as exc:
        # Unhashable labels, non-triple edges, non-numeric weights.
        raise ProtocolError(f"malformed graph payload: {exc}") from exc
    return graph


def graph_oid(payload: Dict[str, Any]) -> str:
    """Content address of a graph payload.

    SHA-256 hex of the canonical JSON under git's blob framing
    (``b"blob <size>\\0" + body``), so the oid a client computes before
    registering equals the oid the server computes on receipt.
    """
    body = canonical_json(payload)
    return hashlib.sha256(b"blob %d\x00" % len(body) + body).hexdigest()


def side_mask(index: Dict[Any, int], side: Iterable[Any], n: int) -> str:
    """A cut side as a hex-packed little-bit-order membership mask.

    ``index`` maps node label -> interned position (``CSRGraph``'s
    interning, or a dict built from the payload's node order).  n/8
    bytes on the wire instead of a label list, and the server unpacks
    straight into the kernel's boolean membership row.
    """
    row = np.zeros(n, dtype=bool)
    for node in side:
        try:
            row[index[node]] = True
        except KeyError:
            raise ServingError(f"side contains unknown node {node!r}") from None
    return np.packbits(row, bitorder="little").tobytes().hex()


def mask_to_row(mask_hex: str, n: int) -> np.ndarray:
    """Inverse of :func:`side_mask`: hex mask -> boolean ``(n,)`` row."""
    try:
        raw = bytes.fromhex(mask_hex)
    except ValueError as exc:
        raise ProtocolError(f"malformed side mask: {exc}") from exc
    if len(raw) != (n + 7) // 8:
        raise ProtocolError(
            f"side mask holds {len(raw)} bytes, expected {(n + 7) // 8}"
        )
    return np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8), count=n, bitorder="little"
    ).astype(bool)


__all__ = [
    "Envelope",
    "MAX_FRAME_BYTES",
    "ServingError",
    "canonical_json",
    "capture_envelope",
    "encode_frame",
    "graph_from_payload",
    "graph_oid",
    "graph_payload",
    "mask_to_row",
    "payload_bytes_digest",
    "read_envelope",
    "side_mask",
    "sock_recv",
    "sock_send",
    "write_envelope",
]
