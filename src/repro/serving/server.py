"""The batched async sketch server (``python -m repro.serving.server``).

A long-lived asyncio daemon holding frozen CSR snapshots and
precomputed sketches per registered graph, answering cut and min-cut
queries over the :mod:`repro.serving.protocol` framing.  Request ops
(frame ``kind``) and their payloads:

======================  ==================================================
``serve.ping``          liveness + server identity
``serve.register``      ``graph_payload`` -> content-addressed ``oid``
``serve.cut_weight``    ``{oid, mask}`` -> one micro-batched cut value
``serve.cut_weights``   ``{oid, masks}`` -> one vectorized batch call
``serve.min_cut``       ``{oid}`` -> exact global min cut of the snapshot
``serve.sketch_query``  ``{oid, mask, epsilon, seed, ...}`` -> sketch
                        estimate from a cached for-all sparsifier
``serve.stats``         cache / batcher / request statistics
``serve.shutdown``      acknowledge and stop the daemon
======================  ==================================================

Responses echo the request kind with ``.ok`` appended (``serve.error``
on failure, payload ``{error, op}``).  Every frame in either direction
is recorded into the active wire capture with the digest of the bytes
that crossed the socket.  While obs is on, every answered request
counts into ``serving.*`` metrics and emits a synthetic
``serve.request`` span record, so the existing SLO grammar
(``span:serve.request:p99<=0.25``) and the live dashboard work on
served traffic unchanged.

The command-line daemon runs inside a
:class:`repro.obs.session.ObsSession`, as ``run_all`` does: obs is on
only under ``--metrics-port``, ``--slo`` or ``--capture``.  Exit codes:
2 usage error; 3 capture or metrics port failure; 6 SLO breach.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import threading
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import GraphError, ObsError, ProtocolError, ReproError
from repro.graphs.mincut import directed_global_min_cut, stoer_wagner
from repro.obs import count as _obs_count
from repro.obs import observe as _obs_observe
from repro.obs import sink as _sink
from repro.obs.announce import announce
from repro.obs.core import STATE as _OBS
from repro.obs.session import (
    CAPTURE_ROTATE_BYTES,
    EXIT_TELEMETRY_FAILURE,
    ObsSession,
    SetupError,
    parse_slo,
)
from repro.obs.slo import serving_default_rules
from repro.serving.batcher import DEFAULT_MAX_BATCH, DEFAULT_WINDOW_S, MicroBatcher
from repro.serving.cache import DEFAULT_CACHE_BYTES, SnapshotCache, SnapshotEntry
from repro.serving.protocol import (
    ServingError,
    capture_envelope,
    encode_frame,
    graph_from_payload,
    graph_oid,
    mask_to_row,
    read_envelope,
    write_envelope,
)


_REQUIRED = object()


def _field(payload: Dict[str, Any], key: str, parse, default: Any = _REQUIRED) -> Any:
    """``parse(payload[key])``, or a :class:`ServingError` naming the field.

    Request values are checked where they are parsed, so a bad one gets
    a ``serve.error`` reply and the connection keeps serving; an
    exception raised anywhere else still surfaces as a server bug.
    """
    value = payload.get(key, default)
    if value is _REQUIRED:
        raise ServingError(f"missing field {key!r}")
    try:
        return parse(value)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ServingError(f"bad {key!r} value {value!r}: {exc}") from exc


def _seed(value: Any) -> int:
    seed = int(value)
    if seed < 0:
        raise ValueError("a seed must be non-negative")
    return seed


def _request_id(envelope) -> Optional[int]:
    """The client's correlation id, when the request carried one.

    Pipelined connections get replies in *flush* order, not send
    order, so clients tag requests with ``rid`` and match replies.
    """
    payload = envelope.payload
    if isinstance(payload, dict) and isinstance(payload.get("rid"), int):
        return payload["rid"]
    return None


class SketchServer:
    """The asyncio serving daemon; construct, ``await start()``, serve."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "sketch-server",
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        batch_window_s: float = DEFAULT_WINDOW_S,
        max_batch: int = DEFAULT_MAX_BATCH,
    ):
        self.host = host
        self.requested_port = port
        self.name = name
        self.cache = SnapshotCache(max_bytes=cache_bytes)
        self.batcher = MicroBatcher(
            self._evaluate,
            window_s=batch_window_s,
            max_batch=max_batch,
            on_flush=self._drain_reply_buffers,
        )
        self.requests = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        #: writer -> encoded reply frames accumulated during a flush;
        #: drained as one write per connection (syscall coalescing).
        self._reply_buffers: Dict[asyncio.StreamWriter, list] = {}

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (raises before :meth:`start`)."""
        if self._server is None:
            raise ServingError("serving daemon is not running")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    async def start(self) -> "SketchServer":
        if self._server is not None:
            raise ServingError("serving daemon is already running")
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.requested_port
        )
        return self

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``serve.shutdown`` request)."""
        if self._server is None or self._stopping is None:
            raise ServingError("serving daemon is not running")
        async with self._server:
            await self._stopping.wait()
            # Drain still-open connection handlers before the loop dies.
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._server = None

    def stop(self) -> None:
        """Request shutdown (safe from signal handlers via the loop)."""
        self.batcher.flush_all()
        if self._stopping is not None:
            self._stopping.set()

    # -- per-connection loop ---------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = "client"
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    envelope = await read_envelope(reader)
                except ProtocolError as exc:
                    # Unframeable input: answer once, then hang up.
                    bad = await write_envelope(
                        writer, self.name, peer, "serve.error",
                        {"error": str(exc), "op": "?"},
                    )
                    capture_envelope(bad)
                    break
                if envelope is None:
                    break
                peer = envelope.sender
                capture_envelope(envelope)
                started = time.perf_counter()
                if envelope.kind == "serve.cut_weight":
                    # Hot path: hand the row to the micro-batcher with
                    # a reply callback and loop straight back to the
                    # next frame — a pipelining client keeps many rows
                    # in flight down one connection, and the reply is
                    # written (rid-tagged) at flush time.
                    self._enqueue_cut(envelope, writer, peer, started)
                    continue
                try:
                    kind, payload = await self._dispatch(envelope)
                    status = "ok"
                except (ServingError, ProtocolError, GraphError, ReproError) as exc:
                    kind = "serve.error"
                    payload = {"error": str(exc), "op": envelope.kind}
                    status = "error"
                rid = _request_id(envelope)
                if rid is not None and isinstance(payload, dict):
                    payload["rid"] = rid
                reply = await write_envelope(
                    writer, self.name, peer, kind, payload
                )
                capture_envelope(reply)
                self._observe_request(envelope.kind, started, status)
                if envelope.kind == "serve.shutdown":
                    self.stop()
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._reply_buffers.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _enqueue_cut(
        self,
        envelope,
        writer: asyncio.StreamWriter,
        peer: str,
        started: float,
    ) -> None:
        """Queue one ``serve.cut_weight`` and arrange its deferred reply."""
        rid = _request_id(envelope)
        try:
            entry, masks = self._resolve(envelope.payload, one_mask=True)
        except (ServingError, ProtocolError, GraphError, ReproError) as exc:
            payload = {"error": str(exc), "op": "serve.cut_weight"}
            if rid is not None:
                payload["rid"] = rid
            self._buffer_reply(writer, peer, "serve.error", payload)
            self._drain_reply_buffers()
            self._observe_request("serve.cut_weight", started, "error")
            return
        oid = entry.oid

        def fan_back(value, exc) -> None:
            if exc is not None:
                kind = "serve.error"
                payload = {"error": str(exc), "op": "serve.cut_weight"}
                status = "error"
            else:
                kind = "serve.cut_weight.ok"
                payload = {"oid": oid, "value": value}
                status = "ok"
            if rid is not None:
                payload["rid"] = rid
            self._buffer_reply(writer, peer, kind, payload)
            self._observe_request("serve.cut_weight", started, status)

        self.batcher.enqueue(entry, masks[0], fan_back)

    def _buffer_reply(
        self, writer: asyncio.StreamWriter, peer: str, kind: str, payload
    ) -> None:
        wire, envelope = encode_frame(self.name, peer, kind, payload)
        self._reply_buffers.setdefault(writer, []).append(wire)
        capture_envelope(envelope)

    def _drain_reply_buffers(self) -> None:
        """One transport write per connection for a whole flush's replies.

        Kernel send syscalls dominate small-frame serving; writing the
        concatenation halves the unbatched per-reply cost and turns a
        width-W flush into one write per *connection* instead of one
        per *row*.  Backpressure rides the transport's own buffering —
        cut replies are ~100 bytes, far below any high-water mark.
        """
        buffers = self._reply_buffers
        if not buffers:
            return
        self._reply_buffers = {}
        for writer, frames in buffers.items():
            if not writer.is_closing():
                writer.write(b"".join(frames))

    def _observe_request(self, op: str, started: float, status: str) -> None:
        self.requests += 1
        if not _OBS.enabled:
            return
        elapsed = time.perf_counter() - started
        _obs_count("serving.requests")
        _obs_count(f"serving.op.{op.replace('serve.', '', 1)}")
        _obs_observe("serving.request.seconds", elapsed)
        # Synthetic span record: the trace module's span stack is a
        # plain list and not safe under interleaved asyncio requests,
        # so serving emits the record shape directly.  This is what
        # span:serve.request:p99<=... rules and the dashboard consume.
        _sink.emit(
            {
                "event": "span",
                "name": "request",
                "path": "serve.request",
                "depth": 0,
                "wall_s": elapsed,
                "status": status,
                "op": op,
            }
        )

    # -- evaluation ------------------------------------------------------

    @staticmethod
    def _evaluate(entry: SnapshotEntry, membership: np.ndarray) -> np.ndarray:
        """The batch kernel call: row-stable, so coalescing is invisible."""
        return entry.csr.cut_weights_stable(membership)

    # -- dispatch --------------------------------------------------------

    async def _dispatch(self, envelope) -> Tuple[str, Any]:
        op = envelope.kind
        payload = envelope.payload
        if op == "serve.ping":
            return "serve.ping.ok", {"name": self.name, "requests": self.requests}
        if op == "serve.register":
            return "serve.register.ok", self._op_register(payload)
        if op == "serve.cut_weights":
            entry, masks = self._resolve(payload)
            values = np.atleast_1d(
                np.asarray(self._evaluate(entry, np.stack(masks)))
            )
            return "serve.cut_weights.ok", {
                "oid": entry.oid,
                "values": [float(v) for v in values],
            }
        if op == "serve.min_cut":
            return "serve.min_cut.ok", self._op_min_cut(payload)
        if op == "serve.sketch_query":
            return "serve.sketch_query.ok", self._op_sketch_query(payload)
        if op == "serve.stats":
            return "serve.stats.ok", {
                "name": self.name,
                "requests": self.requests,
                "cache": self.cache.stats(),
                "batcher": self.batcher.stats(),
            }
        if op == "serve.shutdown":
            return "serve.shutdown.ok", {"name": self.name}
        raise ServingError(f"unknown op {op!r}")

    # -- op implementations ----------------------------------------------

    def _op_register(self, payload) -> Dict[str, Any]:
        if not isinstance(payload, dict):
            raise ServingError("serve.register needs a graph payload")
        # The correlation id is transport framing, not graph content —
        # strip it so the content address matches the client's.
        payload = {k: v for k, v in payload.items() if k != "rid"}
        oid = graph_oid(payload)
        cached = oid in self.cache
        if not cached:
            graph = graph_from_payload(payload)
            entry = self.cache.put(oid, graph)
        else:
            entry = self.cache.get(oid)
        return {
            "oid": oid,
            "cached": cached,
            "nodes": entry.csr.num_nodes,
            "edges": entry.csr.num_edges,
        }

    def _resolve(self, payload, one_mask: bool = False):
        if not isinstance(payload, dict):
            raise ServingError("cut ops need an object payload")
        entry = self.cache.get(str(payload.get("oid", "")))
        n = entry.csr.num_nodes
        if one_mask:
            masks = [mask_to_row(str(payload.get("mask", "")), n)]
        else:
            raw = payload.get("masks")
            if not isinstance(raw, list) or not raw:
                raise ServingError("serve.cut_weights needs a non-empty masks list")
            masks = [mask_to_row(str(m), n) for m in raw]
        return entry, masks

    def _op_min_cut(self, payload) -> Dict[str, Any]:
        if not isinstance(payload, dict):
            raise ServingError("serve.min_cut needs an object payload")
        entry = self.cache.get(str(payload.get("oid", "")))
        if entry.undirected:
            value, side = stoer_wagner(entry.graph)
        else:
            value, side = directed_global_min_cut(entry.graph)
        return {
            "oid": entry.oid,
            "value": float(value),
            "side": sorted(side, key=repr),
        }

    def _sketch_for(self, entry: SnapshotEntry, payload) -> Any:
        from repro.sketch.sparsifier import (
            DEFAULT_SAMPLING_CONSTANT,
            SparsifierSketch,
        )

        epsilon = _field(payload, "epsilon", float, 0.1)
        seed = _field(payload, "seed", _seed, 0)
        constant = _field(payload, "constant", float, DEFAULT_SAMPLING_CONSTANT)
        connectivity = str(payload.get("connectivity", "exact"))
        key = ("sketch", epsilon, seed, constant, connectivity)
        sketch = entry.sketches.get(key)
        if sketch is None:
            rng = np.random.default_rng(seed)
            if entry.undirected:
                sketch = SparsifierSketch.from_undirected(
                    entry.graph, epsilon=epsilon, rng=rng,
                    constant=constant, connectivity=connectivity,
                )
            else:
                sketch = SparsifierSketch(
                    entry.graph, epsilon=epsilon, rng=rng,
                    constant=constant, connectivity=connectivity,
                )
            entry.sketches[key] = sketch
            self.cache.add_sketch_bytes(entry, sketch)
            if _OBS.enabled:
                _obs_count("serving.sketch.builds")
        elif _OBS.enabled:
            _obs_count("serving.sketch.cache_hits")
        return sketch

    def _op_sketch_query(self, payload) -> Dict[str, Any]:
        if not isinstance(payload, dict):
            raise ServingError("serve.sketch_query needs an object payload")
        entry = self.cache.get(str(payload.get("oid", "")))
        sketch = self._sketch_for(entry, payload)
        row = mask_to_row(str(payload.get("mask", "")), entry.csr.num_nodes)
        side = entry.csr.side_from_row(row)
        if not side or len(side) == entry.csr.num_nodes:
            raise ServingError("sketch_query side must be a proper nonempty subset")
        return {
            "oid": entry.oid,
            "value": float(sketch.query(side)),
            "size_bits": int(sketch.size_bits()),
        }


# ----------------------------------------------------------------------
# In-thread harness (tests, run_all --serve, the sync client's peer)
# ----------------------------------------------------------------------


class ServerThread:
    """Run a :class:`SketchServer` on a dedicated event loop thread.

    The sync :class:`~repro.serving.client.ServingClient`, the pytest
    suite, and ``run_all --serve`` all need a live daemon without
    owning an event loop themselves.  ``start()`` blocks until the
    socket is bound (so ``.port`` is immediately valid), ``stop()``
    shuts the daemon down and joins the thread.
    """

    def __init__(self, **server_kwargs: Any):
        self.server = SketchServer(**server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-sketch-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._error is not None:
            raise ServingError(f"serving daemon failed to start: {self._error}")
        if not self._ready.is_set():
            raise ServingError("serving daemon did not start in time")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # surface bind errors to start()
                self._error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.server.serve_until_stopped()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self.server.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False


# ----------------------------------------------------------------------
# CLI daemon
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.server",
        description="Batched async cut-query / sketch server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = ephemeral; the bound port is announced on "
        "stderr as 'serving: tcp://...')",
    )
    parser.add_argument("--name", default="sketch-server")
    parser.add_argument(
        "--cache-bytes", type=int, default=DEFAULT_CACHE_BYTES,
        help="measured-bytes LRU budget for snapshots+sketches "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus /metrics (0 = ephemeral; announced on "
        "stderr as 'serving metrics: http://...'); exit 3 if it can't bind",
    )
    parser.add_argument(
        "--slo", nargs="?", const="", default=None, metavar="SPEC",
        help="evaluate SLO rules live; empty SPEC installs the serving "
        "defaults (span:serve.request p99 ceiling); exit 6 on breach",
    )
    parser.add_argument(
        "--capture", default=None, metavar="PATH",
        help="stream the wire transcript to PATH as JSONL rotating at "
        f"{CAPTURE_ROTATE_BYTES >> 20} MiB; exit 3 if it cannot open "
        "or a write fails",
    )
    args = parser.parse_args(argv)

    # Usage errors come before any global state moves.
    try:
        session = ObsSession(
            capture=args.capture,
            capture_meta={"kind": "serving", "server": args.name},
            metrics_port=args.metrics_port,
            metrics_label="serving metrics",
            rules=parse_slo(args.slo, defaults=serving_default_rules),
            long_lived=True,
        )
    except ObsError as exc:
        parser.error(str(exc))

    stop_event = threading.Event()
    # An in-process caller gets its own handlers back on every exit.
    previous = {
        signum: signal.getsignal(signum)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        with session, ServerThread(
            host=args.host, port=args.port, name=args.name,
            cache_bytes=args.cache_bytes,
        ) as thread:
            announce("serving", thread.server.url)
            for signum in previous:
                signal.signal(signum, lambda *_: stop_event.set())
            # Wake on a signal or on the daemon finishing (shutdown op).
            while thread._thread.is_alive() and not stop_event.wait(0.2):
                pass
    except SetupError:
        return EXIT_TELEMETRY_FAILURE
    finally:
        for signum, handler in previous.items():
            if handler is not None:  # None: not installed from Python
                signal.signal(signum, handler)

    wire = session.wire
    if wire is not None:
        print(
            f"wire capture: {wire.recorded} messages, "
            f"{wire.total_bits} bits -> {args.capture}",
            file=sys.stderr, flush=True,
        )
    if session.engine is not None:
        for line in session.engine.summary_lines():
            print(line, file=sys.stderr, flush=True)
    return session.write_failure() or session.slo_failure()


if __name__ == "__main__":
    sys.exit(main())
