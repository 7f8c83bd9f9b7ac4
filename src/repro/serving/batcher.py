"""Adaptive micro-batching: coalesce in-flight cut queries per snapshot.

The serving daemon's hot path is thousands of concurrent single-cut
queries against a handful of registered snapshots.  Answering each one
individually pays the fixed cost of a kernel dispatch — membership
stacking, numpy call overhead, telemetry — per *query*; the batched
kernels were built to pay it per *call*.  :class:`MicroBatcher` holds
each arriving query in a per-snapshot pending queue and flushes the
queue as one vectorized
:meth:`~repro.graphs.csr.CSRGraph.cut_weights_stable` call when the
first of three triggers fires:

* the queue reaches ``max_batch`` rows (flush immediately);
* the queue depth is *stable across one event-loop pass* — a
  ``call_soon`` probe sees no new arrivals, meaning every request the
  loop had already read is enqueued and waiting any longer would buy
  width only from future network arrivals (adaptive trigger);
* ``window_s`` elapses since the queue's first row (timer backstop for
  trickle traffic).

The adaptive trigger is what makes closed-loop load self-batching:
while one flush computes and its replies drain, the next wave of
requests lands in socket buffers; the following loop pass reads them
all, the probe sees the depth settle, and they flush as one batch —
width tracks concurrency with no idle waiting.  Results fan back
through per-row callbacks (or awaitable futures via :meth:`MicroBatcher.
submit`).  ``max_batch=1`` is the unbatched configuration —
every query still travels the identical code path, and because the
kernel is row-stable, responses are byte-identical across settings.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.obs import count as _obs_count
from repro.obs import observe as _obs_observe
from repro.obs import set_gauge as _obs_gauge
from repro.obs import sink as _sink
from repro.obs.core import STATE as _OBS
from repro.serving.protocol import ServingError

#: Default coalescing window (seconds) and batch-width ceiling.
DEFAULT_WINDOW_S = 0.002
DEFAULT_MAX_BATCH = 64


class _PendingBatch:
    """Rows waiting to flush against one snapshot."""

    __slots__ = ("entry", "rows", "callbacks", "handle", "opened")

    def __init__(self, entry):
        self.entry = entry
        self.rows: List[np.ndarray] = []
        self.callbacks: List[Callable] = []
        self.handle: Optional[asyncio.TimerHandle] = None
        self.opened = time.perf_counter()


class MicroBatcher:
    """Per-snapshot coalescing of single-cut queries into batch calls.

    ``evaluate(entry, membership_matrix)`` is the vectorized kernel
    call — the server passes the row-stable
    :meth:`~repro.graphs.csr.CSRGraph.cut_weights_stable` so a row's
    bytes do not depend on which batch it rode in.
    """

    def __init__(
        self,
        evaluate: Callable[[Any, np.ndarray], np.ndarray],
        window_s: float = DEFAULT_WINDOW_S,
        max_batch: int = DEFAULT_MAX_BATCH,
        on_flush: Optional[Callable[[], None]] = None,
    ):
        if window_s < 0:
            raise ServingError(f"window_s must be >= 0, got {window_s!r}")
        if max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {max_batch!r}")
        self.evaluate = evaluate
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        #: Called once after each flush's fan-back — the server hooks
        #: this to coalesce all replies bound for one connection into a
        #: single transport write instead of one syscall per row.
        self.on_flush = on_flush
        self._pending: Dict[str, _PendingBatch] = {}
        #: Flush/row totals (the ``stats`` op and the bench read these).
        self.batches = 0
        self.rows = 0
        self.max_width = 0

    # -- submission ------------------------------------------------------

    def depth(self) -> int:
        """Queries currently queued and unflushed, across snapshots."""
        return sum(len(p.rows) for p in self._pending.values())

    def enqueue(
        self,
        entry,
        row: np.ndarray,
        callback: Callable[[Optional[float], Optional[Exception]], None],
    ) -> None:
        """Queue one membership row; ``callback(value, exc)`` fires at
        flush time with the row's cut value (or the batch's failure).

        Synchronous on purpose: the server's per-connection reader
        calls this and loops straight back to ``read_envelope``, so a
        single pipelined connection keeps many rows in flight — no
        per-request task wakeup on the hot path.
        """
        loop = asyncio.get_running_loop()
        batch = self._pending.get(entry.oid)
        if batch is None:
            batch = _PendingBatch(entry)
            self._pending[entry.oid] = batch
            if self.max_batch > 1:
                if self.window_s > 0:
                    batch.handle = loop.call_later(
                        self.window_s, self._flush, entry.oid
                    )
                # Adaptive trigger: probe after the loop drains its
                # current ready queue; flush as soon as depth settles.
                loop.call_soon(self._probe, entry.oid, 1)
        batch.rows.append(row)
        batch.callbacks.append(callback)
        if _OBS.enabled:
            _obs_gauge("serving.queue.depth", float(self.depth()))
        if len(batch.rows) >= self.max_batch:
            self._flush(entry.oid)

    async def submit(self, entry, row: np.ndarray) -> float:
        """Future-based wrapper over :meth:`enqueue` (tests, embedding)."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def resolve(value: Optional[float], exc: Optional[Exception]) -> None:
            if future.done():
                return
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(value)

        self.enqueue(entry, row, resolve)
        return await future

    def _probe(self, oid: str, seen: int) -> None:
        """Flush once the queue stops growing within a loop pass."""
        batch = self._pending.get(oid)
        if batch is None:  # already flushed (max_batch or timer)
            return
        depth = len(batch.rows)
        if depth > seen:
            asyncio.get_running_loop().call_soon(self._probe, oid, depth)
        else:
            self._flush(oid)

    # -- flushing --------------------------------------------------------

    def _flush(self, oid: str) -> None:
        batch = self._pending.pop(oid, None)
        if batch is None:
            return
        if batch.handle is not None:
            batch.handle.cancel()
        width = len(batch.rows)
        start = time.perf_counter()
        try:
            values = np.atleast_1d(
                np.asarray(self.evaluate(batch.entry, np.stack(batch.rows)))
            )
        except Exception as exc:  # fan the failure back to every caller
            failure = ServingError(f"batch evaluation failed: {exc}")
            for callback in batch.callbacks:
                callback(None, failure)
            if self.on_flush is not None:
                self.on_flush()
            return
        elapsed = time.perf_counter() - start
        for callback, value in zip(batch.callbacks, values):
            callback(float(value), None)
        if self.on_flush is not None:
            self.on_flush()
        self.batches += 1
        self.rows += width
        self.max_width = max(self.max_width, width)
        if _OBS.enabled:
            _obs_count("serving.batch.flushes")
            _obs_count("serving.batch.rows", width)
            _obs_observe("serving.batch.width", width)
            _obs_gauge("serving.batch.last_width", float(width))
            _obs_gauge("serving.queue.depth", float(self.depth()))
            # A synthetic span record (not trace.span: the global span
            # stack is not async-safe) so span:serve.batch SLO rules
            # and the live dashboard see flush latency.
            _sink.emit(
                {
                    "event": "span",
                    "name": "batch",
                    "path": "serve.batch",
                    "depth": 0,
                    "wall_s": elapsed,
                    "status": "ok",
                    "rows": width,
                }
            )

    def flush_all(self) -> None:
        """Flush every pending queue now (shutdown path)."""
        for oid in list(self._pending):
            self._flush(oid)

    def stats(self) -> Dict[str, Any]:
        """JSON-able flush statistics (the ``stats`` op)."""
        return {
            "window_s": self.window_s,
            "max_batch": self.max_batch,
            "batches": self.batches,
            "rows": self.rows,
            "max_width": self.max_width,
            "mean_width": (self.rows / self.batches) if self.batches else None,
            "queued": self.depth(),
        }


__all__ = ["DEFAULT_MAX_BATCH", "DEFAULT_WINDOW_S", "MicroBatcher"]
