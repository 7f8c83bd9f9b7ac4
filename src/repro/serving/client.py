"""Sync and async clients for the sketch server.

Both speak the :mod:`repro.serving.protocol` framing and share one
request discipline: send a frame, read exactly one reply, raise
:class:`~repro.serving.protocol.ServingError` when the reply is
``serve.error``.  Sent and received envelopes are recorded into the
active wire capture, so a client-side transcript diff-checks against
the server's with :func:`repro.obs.capture.first_divergence`.

:class:`ServingClient` is the blocking client (load-generator workers,
tests, the ``run_all --serve`` smoke); :class:`AsyncServingClient` is
its asyncio twin, used to drive many concurrent in-flight queries down
one connection — the traffic shape the server's micro-batcher exists
to coalesce.

Registration is content-addressed end to end: the client canonicalises
the graph payload, computes its graph oid locally, and keeps the
node -> index interning so later cut queries ship packed membership
masks (n/8 bytes) instead of label lists.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Dict, Iterable, List, Optional

from repro.serving.protocol import (
    Envelope,
    ProtocolError,
    ServingError,
    capture_envelope,
    graph_oid,
    graph_payload,
    read_envelope,
    side_mask,
    sock_recv,
    sock_send,
    write_envelope,
)


class _RegisteredGraph:
    """Client-side view of a registered snapshot: oid + interning."""

    __slots__ = ("oid", "index", "n")

    def __init__(self, oid: str, nodes: List[Any]):
        self.oid = oid
        self.index: Dict[Any, int] = {label: i for i, label in enumerate(nodes)}
        self.n = len(nodes)


def _check_reply(request_kind: str, reply: Envelope) -> Any:
    if reply.kind == "serve.error":
        detail = reply.payload or {}
        raise ServingError(
            f"{detail.get('op', request_kind)}: {detail.get('error', 'unknown error')}"
        )
    expected = f"{request_kind}.ok"
    if reply.kind != expected:
        raise ServingError(
            f"expected {expected!r} reply, got {reply.kind!r}"
        )
    return reply.payload


class _ClientCore:
    """Shared bookkeeping: identity, registered-graph interning."""

    def __init__(self, name: str):
        self.name = name
        self.server_name = "sketch-server"
        self._graphs: Dict[str, _RegisteredGraph] = {}

    def _note_graph(self, payload: Dict[str, Any], oid: str) -> str:
        self._graphs[oid] = _RegisteredGraph(oid, list(payload["nodes"]))
        return oid

    def _mask(self, oid: str, side: Iterable[Any]) -> str:
        reg = self._graphs.get(oid)
        if reg is None:
            raise ServingError(
                f"graph {oid[:12]}... was not registered through this client"
            )
        return side_mask(reg.index, side, reg.n)


class ServingClient(_ClientCore):
    """Blocking client; a context manager owning one TCP connection."""

    def __init__(self, host: str, port: int, name: str = "client", timeout_s: float = 30.0):
        super().__init__(name)
        self.host = host
        self.port = port
        self._sock: Optional[socket.socket] = None
        self._timeout_s = timeout_s

    # -- connection ------------------------------------------------------

    def connect(self) -> "ServingClient":
        if self._sock is not None:
            return self
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self._timeout_s
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServingClient":
        return self.connect()

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # -- request primitive ----------------------------------------------

    def request(self, kind: str, payload: Any = None) -> Any:
        """One round trip; returns the ``.ok`` payload or raises."""
        if self._sock is None:
            raise ServingError("client is not connected")
        sent = sock_send(self._sock, self.name, self.server_name, kind, payload)
        capture_envelope(sent)
        reply = sock_recv(self._sock)
        capture_envelope(reply)
        return _check_reply(kind, reply)

    # -- ops -------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("serve.ping")

    def register_graph(self, graph) -> str:
        """Register a graph; returns its content-addressed oid."""
        payload = graph_payload(graph)
        oid = graph_oid(payload)
        reply = self.request("serve.register", payload)
        if reply["oid"] != oid:
            raise ServingError(
                f"server assigned oid {reply['oid'][:12]}... but the payload "
                f"hashes to {oid[:12]}... locally"
            )
        return self._note_graph(payload, oid)

    def cut_weight(self, oid: str, side: Iterable[Any]) -> float:
        reply = self.request(
            "serve.cut_weight", {"oid": oid, "mask": self._mask(oid, side)}
        )
        return float(reply["value"])

    def cut_weights(self, oid: str, sides: List[Iterable[Any]]) -> List[float]:
        reply = self.request(
            "serve.cut_weights",
            {"oid": oid, "masks": [self._mask(oid, s) for s in sides]},
        )
        return [float(v) for v in reply["values"]]

    def min_cut(self, oid: str) -> Dict[str, Any]:
        return self.request("serve.min_cut", {"oid": oid})

    def sketch_query(
        self,
        oid: str,
        side: Iterable[Any],
        epsilon: float,
        seed: int,
        constant: Optional[float] = None,
        connectivity: Optional[str] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "oid": oid,
            "mask": self._mask(oid, side),
            "epsilon": float(epsilon),
            "seed": int(seed),
        }
        if constant is not None:
            payload["constant"] = float(constant)
        if connectivity is not None:
            payload["connectivity"] = str(connectivity)
        return self.request("serve.sketch_query", payload)

    def stats(self) -> Dict[str, Any]:
        return self.request("serve.stats")

    def shutdown(self) -> Dict[str, Any]:
        return self.request("serve.shutdown")


class AsyncServingClient(_ClientCore):
    """Asyncio client pipelining concurrent requests over one socket.

    Every request carries a correlation id (``rid``); a background
    reader task matches replies — which arrive in *flush* order, not
    send order, because the server's micro-batcher coalesces the hot
    path — back to their awaiting futures.  Many :meth:`cut_weight`
    coroutines issued concurrently therefore stream down one
    connection back-to-back, which is exactly the in-flight depth the
    server's adaptive batching turns into wide kernel calls.
    """

    def __init__(self, host: str, port: int, name: str = "client"):
        super().__init__(name)
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_rid = 0

    async def connect(self) -> "AsyncServingClient":
        if self._writer is not None:
            return self
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        sock = self._writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        error: Optional[Exception] = None
        try:
            while True:
                reply = await read_envelope(self._reader)
                if reply is None:
                    break
                capture_envelope(reply)
                rid = None
                if isinstance(reply.payload, dict):
                    rid = reply.payload.get("rid")
                future = self._pending.pop(rid, None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except asyncio.CancelledError:
            return
        except (ProtocolError, ConnectionError, OSError) as exc:
            error = exc
        failure = ServingError(
            f"connection to {self.host}:{self.port} lost"
            + (f": {error}" if error else "")
        )
        for future in self._pending.values():
            if not future.done():
                future.set_exception(failure)
        self._pending.clear()

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "AsyncServingClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> bool:
        await self.close()
        return False

    async def request(self, kind: str, payload: Any = None) -> Any:
        if self._writer is None or self._reader is None:
            raise ServingError("client is not connected")
        rid = self._next_rid
        self._next_rid += 1
        if payload is None:
            payload = {"rid": rid}
        elif isinstance(payload, dict):
            payload = {**payload, "rid": rid}
        else:
            raise ServingError("request payloads must be JSON objects")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        sent = await write_envelope(
            self._writer, self.name, self.server_name, kind, payload
        )
        capture_envelope(sent)
        reply = await future
        return _check_reply(kind, reply)

    async def ping(self) -> Dict[str, Any]:
        return await self.request("serve.ping")

    async def register_graph(self, graph) -> str:
        payload = graph_payload(graph)
        oid = graph_oid(payload)
        reply = await self.request("serve.register", payload)
        if reply["oid"] != oid:
            raise ServingError(
                f"server assigned oid {reply['oid'][:12]}... but the payload "
                f"hashes to {oid[:12]}... locally"
            )
        return self._note_graph(payload, oid)

    async def cut_weight(self, oid: str, side: Iterable[Any]) -> float:
        reply = await self.request(
            "serve.cut_weight", {"oid": oid, "mask": self._mask(oid, side)}
        )
        return float(reply["value"])

    async def cut_weights(self, oid: str, sides: List[Iterable[Any]]) -> List[float]:
        reply = await self.request(
            "serve.cut_weights",
            {"oid": oid, "masks": [self._mask(oid, s) for s in sides]},
        )
        return [float(v) for v in reply["values"]]

    async def min_cut(self, oid: str) -> Dict[str, Any]:
        return await self.request("serve.min_cut", {"oid": oid})

    async def stats(self) -> Dict[str, Any]:
        return await self.request("serve.stats")

    async def shutdown(self) -> Dict[str, Any]:
        return await self.request("serve.shutdown")


__all__ = ["AsyncServingClient", "ServingClient"]
