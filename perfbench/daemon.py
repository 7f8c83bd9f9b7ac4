"""The serving daemon with the benchmark's layer wrappers installed.

Usage: ``python perfbench/daemon.py <repro.serving.server arguments>``
(with ``src`` on ``PYTHONPATH``).  It wraps the layers, then calls the
daemon's own ``main``.  Each ``serve.stats`` reply gains a ``perfbench``
entry with the layer counters and the daemon's clock, so the load
generator reads them through the daemon's real protocol at the start
and end of its window.
"""

from __future__ import annotations

import selectors
import sys
import time
from collections import defaultdict

from tracer import Tracer, install_layers


def _install_serving(tracer: Tracer) -> None:
    from repro.serving.batcher import MicroBatcher
    from repro.serving.server import SketchServer

    # Time the event loop spends blocked waiting for I/O.
    selector = selectors.DefaultSelector
    selector.select = tracer.timed("serving.loop.idle", selector.select)

    # Queue wait of each row, from enqueue to the start of its flush.
    queued = defaultdict(list)
    enqueue, flush = MicroBatcher.enqueue, MicroBatcher._flush

    def timed_enqueue(self, entry, row, callback):
        queued[entry.oid].append(time.perf_counter())
        return enqueue(self, entry, row, callback)

    def timed_flush(self, oid):
        now = time.perf_counter()
        waits = queued.pop(oid, ())
        tracer.counts["serving.batcher.wait_s"] += sum(now - t for t in waits)
        tracer.counts["serving.batcher.wait_rows"] += len(waits)
        return flush(self, oid)

    MicroBatcher.enqueue = timed_enqueue
    MicroBatcher._flush = timed_flush

    dispatch = SketchServer._dispatch

    async def reporting_dispatch(self, envelope):
        kind, payload = await dispatch(self, envelope)
        if kind == "serve.stats.ok":
            payload["perfbench"] = {"trace": tracer.snapshot(), "clock": time.perf_counter()}
        return kind, payload

    SketchServer._dispatch = reporting_dispatch


def main() -> int:
    tracer = Tracer()
    install_layers(tracer)
    _install_serving(tracer)
    from repro.serving import server

    return server.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
