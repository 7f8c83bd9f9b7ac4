"""One observability session per process: ``run_all`` and the daemon.

:class:`ObsSession` owns four decisions both command lines share:

* the switch is on exactly when something reads what it records — a
  telemetry sink, a wire capture, a live consumer (SLO rules, a live
  export, a metrics port), the memory profiler or the profiler — and
  the live bus exists exactly when a live consumer does;
* consumers open in one order on one :class:`contextlib.ExitStack` and
  close in reverse;
* on every exit (normal, an exception, a failed setup) an in-process
  caller gets back its switch, sink, metric values, span stack, live
  bus, captures, bound monitors and space specs, while the run itself
  starts from a zeroed registry and an empty span stack;
* a consumer that cannot open, or whose writes fail, means exit
  :data:`EXIT_TELEMETRY_FAILURE`; a breached SLO rule means
  :data:`EXIT_SLO_BREACH`.
"""

from __future__ import annotations

import os
import sys
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ObsError
from repro.obs import bounds, core, live, memory, metrics
from repro.obs.capture import WireCapture, capturing
from repro.obs.profile import SpanProfiler
from repro.obs.sink import JsonlSink, RotatingJsonlSink, event
from repro.obs.slo import SloEngine, SloRule, default_rules, parse_spec

#: A consumer could not open (or bind), or its writes failed mid-run.
EXIT_TELEMETRY_FAILURE = 3
#: An SLO rule breached.
EXIT_SLO_BREACH = 6
#: A long-lived process's capture file rotates past this many bytes…
CAPTURE_ROTATE_BYTES = 8 << 20
#: …and keeps only this many of its newest messages in memory.
CAPTURE_RETAIN = 4096


class SetupError(ObsError):
    """A consumer could not open; its ``error:`` line is printed."""


def parse_slo(
    spec: Optional[str],
    memory_mode: Optional[str] = None,
    defaults: Callable[[], List[SloRule]] = default_rules,
) -> Optional[List[SloRule]]:
    """The rules of an ``--slo`` spec (``defaults()`` when bare).

    ``None`` without the flag.  Under a memory mode the space specs are
    registered while the spec expands, so ``bound:*`` covers them.
    """
    if spec is None:
        return None
    with bounds.registered(memory.SPACE_SPECS if memory_mode else ()):
        return parse_spec(spec) if spec.strip() else defaults()


class ObsSession:
    """A context manager that switches on what a run asked for.

    Construction installs nothing and rejects requests that cannot be
    honoured (:class:`~repro.errors.ObsError`).  Entering raises
    :class:`SetupError` with nothing left installed when a consumer
    cannot open.  Leaving normally finishes in a fixed order: memory
    events, a closing ``live.tick``, the bound fits, the SLO engine's
    last pass, profile events, and the ``summary`` event (with a
    telemetry sink only).  ``long_lived`` marks a process that runs
    until stopped (the daemon): its capture rotates and keeps
    :data:`CAPTURE_RETAIN` messages.  Afterwards the caller reads
    :attr:`sink`, :attr:`wire`, :attr:`monitor` and :attr:`engine`.
    """

    sink: Optional[JsonlSink] = None
    wire: Optional[WireCapture] = None
    monitor: Optional[bounds.BoundMonitor] = None
    engine: Optional[SloEngine] = None
    _exporter = _wire_sink = _profiler = _memory = None

    def __init__(
        self,
        *,
        telemetry: Optional[str] = None,
        capture: Optional[str] = None,
        capture_meta: Optional[Dict[str, Any]] = None,
        live_export: Optional[str] = None,
        metrics_port: Optional[int] = None,
        metrics_label: str = "live metrics",
        rules: Optional[Sequence[SloRule]] = None,
        memory_mode: Optional[str] = None,
        profile: bool = False,
        long_lived: bool = False,
    ):
        if memory_mode is not None and memory_mode not in memory.MODES:
            raise ObsError(
                f"memory mode must be one of {memory.MODES}, got {memory_mode!r}"
            )
        if profile and telemetry is None and live_export is None:
            raise ObsError(
                "profile records need a telemetry sink or a live export"
            )
        self._telemetry, self._capture = telemetry, capture
        self._capture_meta, self._long_lived = capture_meta, long_lived
        self._live_export, self._rules = live_export, rules
        self._metrics_port, self._metrics_label = metrics_port, metrics_label
        self._memory_mode, self._profile = memory_mode, profile
        self._live = any(
            value is not None for value in (rules, live_export, metrics_port)
        )
        self._switch = self._live or profile or any(
            value is not None for value in (telemetry, capture, memory_mode)
        )

    def __enter__(self) -> "ObsSession":
        with ExitStack() as stack:
            self._open(stack)
            self._stack = stack.pop_all()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        with self._stack:
            if exc_type is None:
                self._finish()
        return False

    def _open(self, stack: ExitStack) -> None:
        if self._memory_mode is not None:
            stack.enter_context(bounds.registered(memory.SPACE_SPECS))
        if self._telemetry is not None:
            # Live tails must see every record promptly.
            self.sink = stack.enter_context(_opened(
                f"open telemetry sink {os.path.abspath(self._telemetry)}",
                JsonlSink, self._telemetry,
                flush_every=1 if self._live else None,
            ))
            print(f"telemetry sink: {os.path.abspath(self.sink.path)}")
        if self._switch:
            stack.enter_context(metrics.fresh_registry())
            stack.enter_context(core.enabled())
            core.STATE.sink = self.sink  # None drops events; metrics record
        if self._live:
            # Imported here: it loads http.server, which only a live
            # export or a metrics port uses.
            from repro.obs.exporters import JsonlExporter, MetricsServer

            bus = stack.enter_context(live.publishing())
            aggregator = live.LiveAggregator().attach(bus)
            if self._rules is not None:
                self.engine = SloEngine(self._rules, aggregator=aggregator)
                self.engine.attach(bus)
                for rule in self.engine.rules:
                    print(f"slo rule: {rule.describe()}", file=sys.stderr,
                          flush=True)
            if self._live_export is not None:
                self._exporter = _opened(
                    f"open live export {os.path.abspath(self._live_export)}",
                    JsonlExporter, self._live_export, aggregator=aggregator,
                ).attach(bus)
                stack.callback(self._exporter.close)
                print(f"live export: {os.path.abspath(self._live_export)}",
                      file=sys.stderr)
            if self._metrics_port is not None:
                server = _opened(
                    f"bind the live metrics server on port {self._metrics_port}",
                    stack.enter_context,
                    MetricsServer(self._metrics_port, aggregator=aggregator),
                )
                server.announce(self._metrics_label)
        if self._capture is not None:
            retain = CAPTURE_RETAIN if self._long_lived else None
            self.wire = WireCapture(meta=self._capture_meta, retain=retain)
            failure = f"open wire capture {os.path.abspath(self._capture)}"
            if self._long_lived:
                self._wire_sink = _opened(
                    failure, RotatingJsonlSink, self._capture,
                    max_bytes=CAPTURE_ROTATE_BYTES,
                    header_factory=self.wire.header_record,
                )
            else:
                self._wire_sink = _opened(failure, JsonlSink, self._capture)
            stack.enter_context(self._wire_sink)
            self._wire_sink.write(self.wire.header_record())
            self.wire.sink = self._wire_sink
            stack.enter_context(capturing(self.wire))
            print(f"wire capture: {os.path.abspath(self._wire_sink.path)}")
        self.monitor = stack.enter_context(bounds.monitoring())
        if self._profile:
            self._profiler = stack.enter_context(SpanProfiler())
        if self._memory_mode is not None:
            self._memory = stack.enter_context(
                memory.MemoryProfiler(mode=self._memory_mode)
            )
            print(f"memory profiler: mode={self._memory.mode}, rss sampler "
                  f"every {self._memory.interval}s", file=sys.stderr)

    def checkpoint(self) -> None:
        """Sample RSS between units of work (memory profiler only)."""
        if self._memory is not None:
            self._memory.checkpoint()

    def _finish(self) -> None:
        if self._profiler is not None:
            self._profiler.stop()
        if self._memory is not None:
            self._memory.stop()
            # Before the SLO engine's last pass, so mem: rules see the
            # span-allocation records the bus tee carries.
            self._memory.emit_events()
            if self._live:
                # A closing pulse: the export gets a live.snapshot frame
                # with those records (worker ticks stopped with the pool).
                live.tick()
            rss = self._memory.rss_record()
            print(
                f"memory: rss {rss['rss_bytes']} bytes, "
                f"peak {rss['rss_peak_bytes']} bytes "
                f"({rss['samples']} samples, {rss['source']}), "
                f"{len(self._memory.footprints)} footprints",
                file=sys.stderr,
            )
        self.monitor.finish()
        if self.engine is not None:
            self.engine.finish()  # late breaches still reach the sink
        if self._profiler is not None:
            self._profiler.emit_events()
        if self.sink is not None:
            # The authoritative cumulative totals for trace_report.
            event("summary", metrics=metrics.REGISTRY.as_dict())

    def write_failure(self) -> int:
        """Report the first writer that failed and return 3, else 0."""
        for what, writer in (("live export", self._exporter),
                             ("wire capture", self._wire_sink),
                             ("telemetry", self.sink)):
            if writer is not None and writer.error is not None:
                print(f"error: {what} writing to {os.path.abspath(writer.path)}"
                      f" failed: {writer.error}", file=sys.stderr)
                return EXIT_TELEMETRY_FAILURE
        return 0

    def slo_failure(self) -> int:
        """Report a breached SLO rule and return 6, else 0."""
        if self.engine is None or not self.engine.breached:
            return 0
        print(f"error: {len(self.engine.breaches)} SLO breach(es) under --slo",
              file=sys.stderr)
        return EXIT_SLO_BREACH


def _opened(failure: str, opener, *args, **kwargs):
    """``opener(*args, **kwargs)``; an OSError is ``error: cannot <failure>``."""
    try:
        return opener(*args, **kwargs)
    except OSError as exc:
        print(f"error: cannot {failure}: {exc}", file=sys.stderr)
        raise SetupError(str(exc)) from exc


__all__ = [
    "CAPTURE_RETAIN",
    "CAPTURE_ROTATE_BYTES",
    "EXIT_SLO_BREACH",
    "EXIT_TELEMETRY_FAILURE",
    "ObsSession",
    "SetupError",
    "parse_slo",
]
