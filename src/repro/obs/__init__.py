"""Unified observability: metrics, tracing spans, structured telemetry.

One subsystem accounts for every resource the reproduced theorems
measure — oracle queries (Thm 1.3), communication bits (the INDEX /
Gap-Hamming / 2-SUM reductions), sketch sizes (Thms 1.1/1.2) — and for
where wall time goes (CSR kernel batches, max-flow phases, distributed
round trips).  Three pieces:

* :mod:`repro.obs.metrics` — counters / gauges / histograms in a
  namespaced registry;
* :mod:`repro.obs.trace` — nested spans recording wall time and the
  metric deltas attributable to each region;
* :mod:`repro.obs.sink` — a JSONL event sink (``telemetry.jsonl``)
  consumed by ``scripts/trace_report.py``;
* :mod:`repro.obs.bounds` — the interpretation layer: declarative
  bound specs (Thm 1.1 / 1.2 / 1.3 / 5.7 envelopes) and a monitor that
  certifies metered quantities against them, emitting ``bound_check``
  events;
* :mod:`repro.obs.profile` — a span-attributed profiler (deterministic
  or sampling) whose ``profile`` events feed per-span hot-function
  tables;
* :mod:`repro.obs.capture` — wire-level protocol capture: every
  message of the comm / game / distributed / local-query layers as a
  causally-sequenced ``wire`` event with a canonical payload digest;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto) and
  collapsed-stack flamegraph exporters over recorded events;
* :mod:`repro.obs.replay` — deterministic re-execution of captured
  games, diffed message-by-message against the recorded transcript;
* :mod:`repro.obs.live` — an in-process pub/sub bus tee'd into the
  event flow, with sliding-window aggregation (rates, nearest-rank
  percentiles, bound slack margins, worker liveness) readable while
  the run is still going;
* :mod:`repro.obs.memory` — measured-space observability: a
  span-attributed tracemalloc profiler with a background peak-RSS
  sampler, ``deep_footprint()`` resident-bytes walking of the core
  structures (CSR snapshots, sketches alongside their theoretical
  ``size_bits()``, the shared-memory result arena), and
  measured-bytes-vs-theorem-envelope certification via
  :class:`~repro.obs.bounds.SpaceBoundSpec` entries over the byte
  columns the tables print under ``run_all --memory``;
* :mod:`repro.obs.slo` — declarative SLO rules (metric thresholds,
  span-latency ceilings, bound-slack floors, worker-stall alerts,
  measured-memory ``mem:``/``rss:`` ceilings) evaluated live, emitting
  ``slo.violation`` events (``run_all --slo`` exits 6);
* :mod:`repro.obs.exporters` — Prometheus-text HTTP endpoint and
  streaming JSONL export feeding ``scripts/obs_watch.py``.

Everything is gated by one switch (:func:`enable` / :func:`disable`,
default **off**) whose disabled path is a near-zero-cost branch; the
``games`` and ``mincut`` workloads of ``perfbench/`` run with it off.
Aggregation lives in :mod:`repro.obs.report` (imported lazily — it
depends on the experiment harness).
"""

from repro.obs import capture
from repro.obs.bounds import BoundCheck, BoundMonitor, BoundSpec, SpaceBoundSpec
from repro.obs.capture import (
    WireCapture,
    WireMessage,
    capturing,
    first_divergence,
    payload_digest,
)
from repro.obs.core import STATE, disable, enable, enabled, is_enabled
from repro.obs.export import (
    chrome_trace,
    collapsed_stacks,
    validate_chrome_trace,
)
from repro.obs.exporters import (
    JsonlExporter,
    MetricsServer,
    prometheus_text,
)
from repro.obs.live import (
    LiveAggregator,
    LiveBus,
    SlidingWindow,
    bound_margin,
    publishing,
)
from repro.obs.memory import (
    MemoryProfiler,
    deep_footprint,
    deep_sizeof,
    observe_footprint,
    read_rss,
    register_space_bounds,
    rss_bytes,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    count,
    delta_since,
    observe,
    reset_metrics,
    set_gauge,
    snapshot,
)
from repro.obs.profile import SpanProfiler
from repro.obs.sink import JsonlSink, ListSink, emit, event
from repro.obs.slo import SloEngine, SloRule, default_rules, parse_spec
from repro.obs.trace import Span, active_span, current_path, span

__all__ = [
    "BoundCheck",
    "BoundMonitor",
    "BoundSpec",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlExporter",
    "JsonlSink",
    "ListSink",
    "LiveAggregator",
    "LiveBus",
    "MemoryProfiler",
    "MetricsRegistry",
    "MetricsServer",
    "REGISTRY",
    "STATE",
    "SlidingWindow",
    "SpaceBoundSpec",
    "SloEngine",
    "SloRule",
    "Span",
    "SpanProfiler",
    "WireCapture",
    "WireMessage",
    "active_span",
    "bound_margin",
    "capturing",
    "chrome_trace",
    "collapsed_stacks",
    "count",
    "current_path",
    "deep_footprint",
    "deep_sizeof",
    "default_rules",
    "first_divergence",
    "parse_spec",
    "payload_digest",
    "prometheus_text",
    "publishing",
    "validate_chrome_trace",
    "delta_since",
    "disable",
    "emit",
    "enable",
    "enabled",
    "event",
    "is_enabled",
    "observe",
    "observe_footprint",
    "read_rss",
    "register_space_bounds",
    "reset_metrics",
    "rss_bytes",
    "set_gauge",
    "snapshot",
    "span",
]
