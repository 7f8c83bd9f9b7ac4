"""Live exporters: Prometheus text snapshots and streaming JSONL.

Two ways out of the process while an experiment is still running:

* :func:`prometheus_text` renders the global metrics registry (plus,
  optionally, a :class:`~repro.obs.live.LiveAggregator`'s windowed
  state) in the Prometheus text exposition format — counters as
  ``_total``, histograms as summaries with ``quantile`` labels — and
  :class:`MetricsServer` serves it over a tiny stdlib HTTP server in a
  daemon thread (``GET /metrics``; ``GET /snapshot`` returns the
  aggregator frame as JSON).
* :class:`JsonlExporter` subscribes to the live bus and streams every
  record to a JSONL file, flushed per record, so ``tail -f`` /
  ``scripts/obs_watch.py`` follow the run in real time.  On each
  ``live.tick`` it additionally writes a ``live.snapshot`` frame — the
  aggregator's whole windowed state — which is what the watch
  dashboard renders.

Everything here is stdlib-only and rides the same global obs switch as
the rest of the stack: with no bus installed, nothing subscribes and
nothing costs.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional

from repro.errors import ObsError
from repro.obs.announce import announce as _announce
from repro.obs.live import LiveAggregator, LiveBus
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.sink import JsonlSink

#: Prometheus text exposition content type.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Namespace prefix for every exported metric.
PROMETHEUS_PREFIX = "repro"

#: Quantiles rendered for each histogram summary.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def sanitize_metric_name(name: str) -> str:
    """Map a dotted registry name onto the Prometheus grammar.

    Dots (the registry's namespace separator) and any other character
    outside ``[a-zA-Z0-9_:]`` become underscores; a leading digit gains
    an underscore prefix.  ``oracle.query.neighbor`` →
    ``oracle_query_neighbor``.
    """
    out = [
        ch if ch.isascii() and (ch.isalnum() or ch in "_:") else "_"
        for ch in name
    ]
    text = "".join(out) or "_"
    if text[0].isdigit():
        text = "_" + text
    return text


def _format_value(value: float) -> str:
    """Prometheus sample rendering: integers bare, floats via repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(
    registry: Optional[MetricsRegistry] = None,
    aggregator: Optional[LiveAggregator] = None,
) -> str:
    """The registry (and live state) in Prometheus text format.

    Deterministic: metrics render in sorted-name order, quantile labels
    in ascending order — the exposition of a fixed registry is a fixed
    string (the golden test relies on this).  Counters gain a
    ``_total`` suffix, histograms render as summaries with
    ``quantile`` labels plus ``_count``/``_sum``; an aggregator adds
    worker-liveness and violation gauges.
    """
    registry = REGISTRY if registry is None else registry
    lines: List[str] = []

    for name, counter in registry.counters().items():
        metric = f"{PROMETHEUS_PREFIX}_{sanitize_metric_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(counter.value)}")

    for name, gauge in registry.gauges().items():
        if gauge.value is None:
            continue
        metric = f"{PROMETHEUS_PREFIX}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauge.value)}")

    for name, hist in registry.histograms().items():
        metric = f"{PROMETHEUS_PREFIX}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} summary")
        for q in SUMMARY_QUANTILES:
            value = hist.quantile(q) if hist.count else float("nan")
            lines.append(
                f'{metric}{{quantile="{_format_value(q)}"}} '
                f"{_format_value(value)}"
            )
        lines.append(f"{metric}_count {_format_value(hist.count)}")
        lines.append(f"{metric}_sum {_format_value(hist.sum)}")

    if aggregator is not None:
        live = f"{PROMETHEUS_PREFIX}_live"
        lines.append(f"# TYPE {live}_workers gauge")
        lines.append(f"{live}_workers {len(aggregator.workers)}")
        lines.append(f"# TYPE {live}_slo_violations_total counter")
        lines.append(
            f"{live}_slo_violations_total {len(aggregator.violations)}"
        )
        for spec, _window in sorted(aggregator.bounds.items()):
            margin = aggregator.bound_min_margin(spec)
            if margin is None:
                continue
            metric = f"{live}_bound_margin"
            lines.append(
                f'{metric}{{spec="{sanitize_metric_name(spec)}"}} '
                f"{_format_value(margin)}"
            )
        # Measured-space gauges (repro.obs.memory).  The main process's
        # repro_memory_rss_bytes / repro_memory_rss_peak_bytes come from
        # registry gauges above; these cover what only the aggregator
        # knows: the cross-source peak, per-worker residency, per-span
        # allocation, and per-structure footprints.
        mem = f"{PROMETHEUS_PREFIX}_memory"
        peak = aggregator.max_rss()
        if peak is not None:
            lines.append(f"# TYPE {mem}_max_rss_bytes gauge")
            lines.append(f"{mem}_max_rss_bytes {_format_value(peak)}")
        worker_lines = []
        for pid, entry in sorted(aggregator.workers.items()):
            rss = entry.get("rss")
            if isinstance(rss, (int, float)):
                worker_lines.append(
                    f'{mem}_worker_rss_bytes{{pid="{pid}"}} '
                    f"{_format_value(rss)}"
                )
        if worker_lines:
            lines.append(f"# TYPE {mem}_worker_rss_bytes gauge")
            lines.extend(worker_lines)
        span_lines = []
        for path, entry in sorted(aggregator.memory_spans.items()):
            value = entry.get("peak_bytes")
            if isinstance(value, (int, float)):
                span_lines.append(
                    f'{mem}_span_peak_bytes{{span="{sanitize_metric_name(path or "root")}"}} '
                    f"{_format_value(value)}"
                )
        if span_lines:
            lines.append(f"# TYPE {mem}_span_peak_bytes gauge")
            lines.extend(span_lines)
        footprint_lines = []
        for _key, entry in sorted(aggregator.memory_footprints.items()):
            value = entry.get("last_bytes")
            if isinstance(value, (int, float)):
                footprint_lines.append(
                    f'{mem}_footprint_bytes'
                    f'{{structure="{sanitize_metric_name(str(entry.get("structure")))}"'
                    f',type="{sanitize_metric_name(str(entry.get("type")))}"}} '
                    f"{_format_value(value)}"
                )
        if footprint_lines:
            lines.append(f"# TYPE {mem}_footprint_bytes gauge")
            lines.extend(footprint_lines)

    return "\n".join(lines) + "\n"


class MetricsServer:
    """Serve live metrics over HTTP from a daemon thread.

    Routes:

    * ``GET /metrics`` — :func:`prometheus_text` of the global registry
      (plus the aggregator, when one was given);
    * ``GET /snapshot`` — the aggregator's JSON frame (404 without one);
    * anything else — 404.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.  The server thread is a daemon and every request is
    served from the thread pool of :class:`ThreadingHTTPServer`, so a
    hung scraper cannot stall the experiment.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        aggregator: Optional[LiveAggregator] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.host = host
        self.requested_port = port
        self.aggregator = aggregator
        self.registry = registry
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (raises before :meth:`start`)."""
        if self._httpd is None:
            raise ObsError("metrics server is not running")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def announce(self, label: str = "live metrics", stream=None) -> str:
        """Report the *bound* URL via :mod:`repro.obs.announce`.

        With ``port=0`` the kernel picks the port at :meth:`start`;
        this is how load generators and CI learn it without a race —
        they tail the announcement instead of guessing a fixed port.
        """
        return _announce(label, self.url, stream=stream)

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            raise ObsError("metrics server is already running")
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    if self.path.split("?")[0] == "/metrics":
                        body = prometheus_text(
                            server.registry, server.aggregator
                        ).encode()
                        self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
                    elif (
                        self.path.split("?")[0] == "/snapshot"
                        and server.aggregator is not None
                    ):
                        body = json.dumps(
                            server.aggregator.snapshot()
                        ).encode()
                        self._reply(200, "application/json", body)
                    else:
                        self._reply(404, "text/plain", b"not found\n")
                except BrokenPipeError:  # scraper went away mid-reply
                    pass

            def _reply(
                self, status: int, content_type: str, body: bytes
            ) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes must not spam the experiment's stderr

        self._httpd = ThreadingHTTPServer(
            (self.host, self.requested_port), Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False


class JsonlExporter:
    """Stream every bus record to a JSONL file, flushed per record.

    Attach to a bus with :meth:`attach`; every published record is
    appended to ``path`` immediately (``flush_every=1`` by default so a
    live tail never lags).  When built with an aggregator, each
    ``live.tick`` also writes a ``live.snapshot`` frame carrying the
    aggregator's full windowed state — the watch dashboard's input.
    """

    def __init__(
        self,
        path: str,
        aggregator: Optional[LiveAggregator] = None,
        flush_every: int = 1,
    ):
        self.path = str(path)
        self.aggregator = aggregator
        self._sink = JsonlSink(self.path, flush_every=flush_every)

    def attach(self, bus: LiveBus) -> "JsonlExporter":
        bus.subscribe(self.on_record)
        return self

    def detach(self, bus: LiveBus) -> None:
        bus.unsubscribe(self.on_record)

    def on_record(self, record: Dict[str, Any]) -> None:
        self._sink.write(record)
        if (
            record.get("event") == "live.tick"
            and self.aggregator is not None
        ):
            frame: Dict[str, Any] = {"event": "live.snapshot"}
            frame.update(self.aggregator.snapshot(record.get("ts")))
            self._sink.write(frame)

    @property
    def error(self) -> Optional[OSError]:
        """First write failure, if any (mirrors :class:`JsonlSink`)."""
        return self._sink.error

    def close(self) -> None:
        self._sink.close()


__all__ = [
    "JsonlExporter",
    "MetricsServer",
    "PROMETHEUS_CONTENT_TYPE",
    "PROMETHEUS_PREFIX",
    "SUMMARY_QUANTILES",
    "prometheus_text",
    "sanitize_metric_name",
]
