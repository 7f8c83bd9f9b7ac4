"""Experiment runner: regenerate the paper's tables.

Usage::

    python -m repro.experiments.run_all            # every experiment
    python -m repro.experiments.run_all e1 e6      # a subset
    python -m repro.experiments.run_all --list     # show the registry

The tables themselves are defined once, in
:mod:`repro.experiments.tables`; this module is only the command line.
Experiments run in registry order (``e1`` … ``e10``).  An experiment
that raises has its traceback printed to stderr under its id; the
remaining experiments still run, and the run exits 1 after the bound
and SLO summaries.  ``make tables`` writes the ``--no-telemetry``
stdout to ``docs/results.txt``, the file EXPERIMENTS.md quotes.

Unless ``--no-telemetry`` is passed, the run also records structured
telemetry (spans, per-row metric deltas, and a final ``summary`` with
every global counter/histogram) into ``--telemetry PATH`` (default
``telemetry.jsonl``); ``scripts/trace_report.py`` turns that file back
into tables.

Every run additionally certifies the metered quantities against the
paper's envelopes (:mod:`repro.obs.bounds`): experiment tables that
declare ``bounds=...`` are checked row by row, each bound reading one
of the row's printed columns, the per-sweep scaling exponents are
fitted, and the results are printed and emitted as ``bound_check``
events.  ``--strict-bounds`` only turns any violation into exit
code 2.  ``--profile`` attaches the span-attributed profiler
(:mod:`repro.obs.profile`) and records ``profile`` events.

``--memory[=sample|trace]`` attaches the measured-space profiler
(:mod:`repro.obs.memory`): a background thread samples peak RSS, and
every core-structure construction (CSR snapshots, sketches, the
local-query oracle) records its measured resident bytes next to its
theoretical ``size_bits()``.  E1b and E2b then print their sketches'
mean bytes as ``sketch_bytes`` and E3 and E3b each configuration's
oracle bytes as ``oracle_bytes``; the Thm 1.1/1.2/1.3 *space* specs
certify those columns against the theorem envelopes alongside the bit
bounds (so ``--memory --strict-bounds`` enforces them).  ``trace``
mode additionally attributes tracemalloc net/peak allocation deltas to
span paths; ``memory`` events ride the normal telemetry flow, the live
bus gains ``repro_memory_*`` gauges, and the ``mem:`` / ``rss:`` SLO
rule kinds become meaningful.  The four byte columns are equal at any
``--jobs`` count; all other memory output goes to stderr.
``--capture-wire`` additionally records every protocol message (sketch
ships, ledger charges, oracle queries) to ``--capture-path`` as a
wire-level transcript; render it with ``scripts/wire_report.py`` or
diff-replay individual games with ``scripts/wire_replay.py``.

``--kernels {auto,python,native}`` selects the compiled-kernel backend
for the hot loops (Dinic, contraction, Lemma 3.2 products); see
:mod:`repro.kernels`.  The resolved backend is reported on *stderr* so
stdout — and therefore any digest of the tables — is identical across
backends.

``--slo[=SPEC]`` attaches the live SLO engine (:mod:`repro.obs.slo`):
a :mod:`repro.obs.live` bus is installed for the run, every telemetry
event is teed onto it, parallel workers stream heartbeat delta
snapshots mid-run, and the rules in SPEC (default: a slack-margin
floor of 1.0 on every registered bound plus a 30 s worker-stall rule)
are evaluated per window; any breach emits an ``slo.violation`` event
and turns into exit code 6.  ``--live-export[=PATH]`` streams every
bus record (plus periodic ``live.snapshot`` frames) to a JSONL file,
and ``--live-port N`` serves Prometheus text at
``http://127.0.0.1:N/metrics`` (0 = ephemeral) — both are what
``scripts/obs_watch.py`` tails.  All live status output goes to
stderr, so stdout digests are unaffected.

The runner keeps no run history.  Speed history is perfbench's
``--record`` JSONL, read by ``perfbench/compare.py``; output equality
is git plus CI's ``digest-parity`` job, which compares this stdout on
the base commit and on the change.

Exit codes: 0 success; 1 an experiment raised; 2 bound violation under
``--strict-bounds``; 3 telemetry sink failure (could not open, or
writing failed mid-run); 4 explicitly requested kernel backend
unavailable; 6 an SLO rule breached under ``--slo``; 7 the ``--serve``
smoke's served responses diverged from direct evaluation.  Code 5 is
unused.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from typing import List, Optional

from repro.experiments.tables import REGISTRY
from repro.parallel import set_default_jobs
from repro.obs import (
    REGISTRY as OBS_REGISTRY,
    STATE as OBS_STATE,
    JsonlSink,
    SpanProfiler,
    disable as obs_disable,
    enable as obs_enable,
    event as obs_event,
    reset_metrics,
    span as obs_span,
)
from repro.obs import bounds as obs_bounds
from repro.obs import capture as obs_capture
from repro.obs import live as obs_live
from repro.obs import memory as obs_memory
from repro.obs import slo as obs_slo
from repro.obs.exporters import JsonlExporter, MetricsServer

#: Exit code for an experiment that raised (the others still run).
EXIT_EXPERIMENT_FAILURE = 1
#: Exit code for a bound violation under ``--strict-bounds``.
EXIT_BOUND_VIOLATION = 2
#: Exit code for a telemetry sink failure.
EXIT_TELEMETRY_FAILURE = 3
#: Exit code for an explicitly requested kernel backend that cannot load.
EXIT_KERNELS_UNAVAILABLE = 4
#: Exit code for an SLO breach under ``--slo``.
EXIT_SLO_BREACH = 6
#: Exit code for a ``--serve`` smoke whose served responses diverge
#: from direct in-process evaluation.
EXIT_SERVE_SMOKE_FAILURE = 7


def _serve_smoke() -> int:
    """Boot an in-process sketch server and digest-check it.

    Registers a small graph with a :class:`ServerThread` daemon on an
    ephemeral port, then asserts the served ``cut_weight`` /
    ``cut_weights`` values are byte-identical to direct
    :meth:`~repro.graphs.csr.CSRGraph.cut_weights_stable` evaluation
    (canonical-JSON sha256 over the value lists) and that the served
    ``min_cut`` value matches :func:`~repro.graphs.mincut.stoer_wagner`.
    """
    import hashlib
    import json

    from repro.graphs.generators import random_regularish_ugraph
    from repro.graphs.mincut import stoer_wagner
    from repro.serving.client import ServingClient
    from repro.serving.server import ServerThread
    from repro.utils.rng import ensure_rng

    def digest(values: List[float]) -> str:
        body = json.dumps(
            [float(v) for v in values], separators=(",", ":"),
            allow_nan=False,
        ).encode()
        return hashlib.sha256(body).hexdigest()

    graph = random_regularish_ugraph(96, 4, rng=11)
    nodes = list(graph.nodes())
    gen = ensure_rng(29)
    sides = []
    for _ in range(24):
        size = int(gen.integers(1, len(nodes)))
        picks = gen.choice(len(nodes), size=size, replace=False)
        sides.append([nodes[i] for i in picks])

    csr = graph.freeze()
    member = csr.membership_matrix([frozenset(s) for s in sides])
    direct = digest(list(csr.cut_weights_stable(member)))
    direct_min, _ = stoer_wagner(graph)

    with ServerThread(max_batch=16, batch_window_s=0.002) as thread:
        print(
            f"serve smoke: {thread.server.url} "
            f"(n={len(nodes)}, {len(sides)} sides)",
            file=sys.stderr,
        )
        with ServingClient("127.0.0.1", thread.port) as client:
            oid = client.register_graph(graph)
            single = digest([client.cut_weight(oid, s) for s in sides])
            batch = digest(client.cut_weights(oid, sides))
            served_min = client.min_cut(oid)["value"]

    failures = []
    if single != direct:
        failures.append(f"cut_weight digest {single[:12]} != {direct[:12]}")
    if batch != direct:
        failures.append(f"cut_weights digest {batch[:12]} != {direct[:12]}")
    if float(served_min) != float(direct_min):
        failures.append(f"min_cut {served_min} != {direct_min}")
    for failure in failures:
        print(f"serve smoke: MISMATCH: {failure}", file=sys.stderr)
    if failures:
        return EXIT_SERVE_SMOKE_FAILURE
    print(
        f"serve smoke: ok (digest {direct[:12]}..., min_cut {direct_min})",
        file=sys.stderr,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run_all",
        description="Regenerate the paper-reproduction experiment tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (e1..e10); default: all, in registry order",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="serving-tier smoke: boot an in-process sketch server on "
        "an ephemeral port, register a small graph, and digest-check "
        "served cut queries and min_cut against direct evaluation; "
        f"exits {EXIT_SERVE_SMOKE_FAILURE} on divergence (no "
        "experiments run)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for parallel trial execution (0 = all "
        "cores, 1 = serial; default: $REPRO_JOBS or serial).  Any value "
        "produces bit-identical tables — see EXPERIMENTS.md, 'Parallel "
        "execution'",
    )
    parser.add_argument(
        "--kernels",
        choices=("auto", "python", "native"),
        default=None,
        metavar="{auto,python,native}",
        help="kernel backend for the hot loops (default: $REPRO_KERNELS "
        "or auto).  'auto' uses compiled kernels when a toolchain is "
        "available and silently degrades to the python reference; "
        "'native' fails fast when no toolchain loads.  Tables are "
        "identical for every backend — see docs/API.md, 'Kernel "
        "backends'",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default="telemetry.jsonl",
        help="where to write the telemetry JSONL (default: %(default)s)",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable telemetry recording for this run",
    )
    parser.add_argument(
        "--strict-bounds",
        action="store_true",
        help=f"exit {EXIT_BOUND_VIOLATION} if any bound_check reports a "
        "violation (bounds are always checked and printed)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach the span-attributed profiler and emit profile events",
    )
    parser.add_argument(
        "--memory",
        nargs="?",
        const=obs_memory.SAMPLE,
        default=None,
        metavar="{sample,trace}",
        help="attach the measured-space profiler: 'sample' (the bare "
        "flag) tracks peak RSS and structure footprints; 'trace' "
        "additionally attributes tracemalloc deltas to span paths.  "
        "E1b/E2b print sketch_bytes and E3/E3b oracle_bytes, which the "
        "Thm 1.1/1.2/1.3 space specs certify against the theorem "
        "envelopes (use the '=' form when experiment ids follow)",
    )
    parser.add_argument(
        "--capture-wire",
        action="store_true",
        help="record every protocol message (sketch ships, ledger "
        "charges, oracle queries) to --capture-path; render with "
        "scripts/wire_report.py",
    )
    parser.add_argument(
        "--capture-path",
        metavar="PATH",
        default="wire.capture.jsonl",
        help="where --capture-wire writes the transcript "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--slo",
        nargs="?",
        const="",
        default=None,
        metavar="SPEC",
        help="evaluate SLO rules live and exit "
        f"{EXIT_SLO_BREACH} on breach.  SPEC is ';'-separated clauses "
        "(metric:NAME<=V, span:PATH:p99<=SECONDS, bound:SPEC>=FLOOR, "
        "stall:SECONDS) or a JSON rule file; the bare flag installs a "
        "margin floor of 1.0 on every registered bound plus a 30s "
        "stall rule (use the '=' form when experiment ids follow)",
    )
    parser.add_argument(
        "--live-export",
        nargs="?",
        const="live.jsonl",
        default=None,
        metavar="PATH",
        help="stream every live-bus record (plus periodic "
        "live.snapshot frames) to a JSONL file for scripts/obs_watch.py "
        "(bare flag: %(const)s; use the '=' form when experiment ids "
        "follow)",
    )
    parser.add_argument(
        "--live-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus text at http://127.0.0.1:PORT/metrics "
        "for the duration of the run (0 = ephemeral port; the bound "
        "port is reported on stderr)",
    )
    parser.add_argument(
        "--flush-every",
        type=int,
        default=None,
        metavar="N",
        help="flush the telemetry JSONL every N records so live tails "
        "see events promptly (default: 1 when --slo/--live-export/"
        "--live-port is active, else interpreter buffering)",
    )
    args = parser.parse_args(argv)

    if args.flush_every is not None and args.flush_every <= 0:
        parser.error("--flush-every must be a positive record count")

    if args.memory is not None and args.memory not in obs_memory.MODES:
        parser.error(
            f"--memory must be one of {obs_memory.MODES}, got {args.memory!r}"
        )

    if args.list:
        for key in REGISTRY:
            print(key)
        return 0

    if args.serve:
        return _serve_smoke()

    chosen = args.experiments or list(REGISTRY)
    unknown = [key for key in chosen if key not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; use --list")

    # Resolve the kernel backend eagerly — an explicit 'native' on a
    # machine with no toolchain must fail here, not mid-experiment.  The
    # report goes to stderr: stdout carries only the tables, so digests
    # stay comparable across backends.
    from repro import kernels as _kernels

    previous_kernels = _kernels.select_backend(args.kernels)
    try:
        backend = _kernels.get_backend()
    except _kernels.KernelUnavailableError as exc:
        _kernels.select_backend(previous_kernels)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_KERNELS_UNAVAILABLE
    name, origin = _kernels.selection_order()
    print(
        f"kernels: {backend.name} ({backend.source}), "
        f"selection {name!r} via {origin}",
        file=sys.stderr,
    )

    def _restore() -> None:
        """Undo the kernel selection and the space specs registered here."""
        _kernels.select_backend(previous_kernels)
        if args.memory is not None:
            # Later in-process runs without --memory must not inherit
            # the space specs.
            obs_memory.unregister_space_bounds()

    # The space specs must exist before the SLO spec parses: a bare
    # --slo (and any bound:* wildcard) expands over the registry, and
    # the memory specs belong in that expansion.  Both steps come before
    # anything opens a file, so a malformed spec leaves the previous
    # run's telemetry alone.
    if args.memory is not None:
        obs_memory.register_space_bounds()
    rules = None
    if args.slo is not None:
        try:
            rules = obs_slo.parse_spec(args.slo)
        except obs_slo.SloError as exc:
            _restore()
            parser.error(str(exc))

    # Wire capture needs live instrumentation sites, so it forces the
    # switch on (it records regardless of --no-telemetry), and so does
    # the memory profiler.  The live bus tees off sink.emit, so
    # --slo/--live-export/--live-port force the switch on the same way
    # (they work under --no-telemetry).  Bound certification reads the
    # printed columns and needs no switch.
    live_on = (
        args.slo is not None
        or args.live_export is not None
        or args.live_port is not None
    )
    use_obs = (
        not args.no_telemetry
        or args.capture_wire
        or live_on
        or args.memory is not None
    )
    flush_every = args.flush_every
    if flush_every is None and live_on:
        flush_every = 1  # live tails must see events promptly
    sink = None
    if not args.no_telemetry:
        try:
            sink = JsonlSink(args.telemetry, flush_every=flush_every)
        except OSError as exc:
            print(
                f"error: cannot open telemetry sink "
                f"{os.path.abspath(args.telemetry)}: {exc}",
                file=sys.stderr,
            )
            _restore()
            return EXIT_TELEMETRY_FAILURE
        print(f"telemetry sink: {os.path.abspath(sink.path)}")
    if use_obs:
        reset_metrics()
        OBS_STATE.sink = sink  # None drops events; metrics still record
        obs_enable()

    # Live observability: the bus tees every emitted record; the
    # aggregator folds them into windows; the SLO engine and the
    # exporters subscribe.  All status output goes to stderr — stdout
    # carries only the tables, so digests stay comparable.
    bus: Optional[obs_live.LiveBus] = None
    aggregator: Optional[obs_live.LiveAggregator] = None
    engine: Optional[obs_slo.SloEngine] = None
    exporter: Optional[JsonlExporter] = None
    server: Optional[MetricsServer] = None

    def _live_teardown() -> None:
        if server is not None:
            server.stop()
        if exporter is not None:
            exporter.close()
        if bus is not None:
            obs_live.uninstall(bus)

    def _setup_abort() -> None:
        """Unwind everything a failed live-setup step left behind."""
        _live_teardown()
        if sink is not None:
            sink.close()
            OBS_STATE.sink = None
        if use_obs:
            obs_disable()
        _restore()

    if live_on:
        bus = obs_live.install(obs_live.LiveBus())
        aggregator = obs_live.LiveAggregator().attach(bus)
        if rules is not None:
            engine = obs_slo.SloEngine(rules, aggregator=aggregator).attach(bus)
            for rule in engine.rules:
                print(f"slo rule: {rule.describe()}", file=sys.stderr)
        if args.live_export is not None:
            try:
                exporter = JsonlExporter(
                    args.live_export, aggregator=aggregator
                ).attach(bus)
            except OSError as exc:
                print(
                    f"error: cannot open live export "
                    f"{os.path.abspath(args.live_export)}: {exc}",
                    file=sys.stderr,
                )
                _setup_abort()
                return EXIT_TELEMETRY_FAILURE
            print(
                f"live export: {os.path.abspath(args.live_export)}",
                file=sys.stderr,
            )
        if args.live_port is not None:
            try:
                server = MetricsServer(
                    port=args.live_port, aggregator=aggregator
                ).start()
            except OSError as exc:
                print(
                    f"error: cannot bind the live metrics server on "
                    f"port {args.live_port}: {exc}",
                    file=sys.stderr,
                )
                _setup_abort()
                return EXIT_TELEMETRY_FAILURE
            server.announce("live metrics")

    capture = None
    capture_sink = None
    if args.capture_wire:
        try:
            capture_sink = JsonlSink(args.capture_path)
        except OSError as exc:
            print(
                f"error: cannot open wire capture "
                f"{os.path.abspath(args.capture_path)}: {exc}",
                file=sys.stderr,
            )
            _setup_abort()
            return EXIT_TELEMETRY_FAILURE
        capture = obs_capture.WireCapture(
            meta={"run": "run_all", "experiments": chosen},
            sink=capture_sink,
        )
        obs_capture.install(capture)
        print(f"wire capture: {os.path.abspath(capture_sink.path)}")

    monitor = obs_bounds.BoundMonitor()
    obs_bounds.install(monitor)
    profiler = SpanProfiler() if args.profile else None
    mem_profiler = (
        obs_memory.MemoryProfiler(mode=args.memory)
        if args.memory is not None
        else None
    )
    # Every sweep and game round below resolves its worker count through
    # this process-wide default (argument > default > $REPRO_JOBS > 1).
    set_default_jobs(args.jobs)
    failed: List[str] = []
    try:
        if profiler is not None:
            profiler.start()
        if mem_profiler is not None:
            mem_profiler.start()
            print(
                f"memory profiler: mode={mem_profiler.mode}, rss sampler "
                f"every {mem_profiler.interval}s",
                file=sys.stderr,
            )
        try:
            for key in chosen:
                try:
                    with obs_span(f"experiment.{key}"):
                        for table in REGISTRY[key]():
                            table.emit()
                except Exception:
                    failed.append(key)
                    print(f"error: experiment {key} failed:", file=sys.stderr)
                    traceback.print_exc()
                if mem_profiler is not None:
                    # Main-thread RSS checkpoint between experiments:
                    # fresh memory.rss_* gauges + one rss event for the
                    # live bus / rss: rules while the run is still going.
                    mem_profiler.checkpoint()
        finally:
            if profiler is not None:
                profiler.stop()
            if mem_profiler is not None:
                mem_profiler.stop()
        if mem_profiler is not None:
            # Before engine.finish(): span-allocation records reach the
            # aggregator through the bus tee, so mem: rules see them.
            mem_profiler.emit_events()
            if bus is not None:
                # One closing clock pulse so the exporter serialises a
                # live.snapshot frame that includes the memory records
                # just published (worker ticks stopped with the pool).
                obs_live.tick()
            rss = mem_profiler.rss_record()
            print(
                f"memory: rss {rss['rss_bytes']} bytes, "
                f"peak {rss['rss_peak_bytes']} bytes "
                f"({rss['samples']} samples, {rss['source']}), "
                f"{len(mem_profiler.footprints)} footprints",
                file=sys.stderr,
            )
        monitor.finish()
        if engine is not None:
            # Final whole-window evaluation while the sink is still
            # open, so late breaches land in the telemetry stream.
            engine.finish()
        if profiler is not None:
            profiler.emit_events()
        if sink is not None:
            # The authoritative cumulative totals for trace_report.
            obs_event("summary", metrics=OBS_REGISTRY.as_dict())
    finally:
        set_default_jobs(None)
        _restore()
        obs_bounds.uninstall(monitor)
        if mem_profiler is not None:
            mem_profiler.stop()  # idempotent; covers the crash path
        _live_teardown()
        if capture is not None:
            obs_capture.uninstall(capture)
        if capture_sink is not None:
            capture_sink.close()
        if use_obs:
            obs_disable()
        if sink is not None:
            sink.close()
            OBS_STATE.sink = None

    if monitor.checks:
        print("\n== Bound certification ==")
        for line in monitor.summary_lines():
            print(line)
        print(
            f"bounds: {len(monitor.checks)} checks, "
            f"{len(monitor.violations)} violations"
        )

    if engine is not None:
        print("\n== SLO ==")
        for line in engine.summary_lines():
            print(line)
        print(
            f"slo: {len(engine.rules)} rules, "
            f"{len(engine.breaches)} breaches"
        )

    if failed:
        print(
            f"error: {len(failed)} experiment(s) failed: {' '.join(failed)}",
            file=sys.stderr,
        )
        return EXIT_EXPERIMENT_FAILURE

    if exporter is not None and exporter.error is not None:
        print(
            f"error: live export writing to "
            f"{os.path.abspath(exporter.path)} failed: {exporter.error}",
            file=sys.stderr,
        )
        return EXIT_TELEMETRY_FAILURE

    if capture is not None:
        if capture_sink.error is not None:
            print(
                f"error: wire capture writing to "
                f"{os.path.abspath(capture_sink.path)} failed: "
                f"{capture_sink.error}",
                file=sys.stderr,
            )
            return EXIT_TELEMETRY_FAILURE
        parties = len(capture.parties())
        print(
            f"\nwire capture written to {args.capture_path}: "
            f"{len(capture)} messages, {capture.total_bits} bits, "
            f"{parties} parties"
        )

    if sink is not None:
        if sink.error is not None:
            print(
                f"error: telemetry writing to {os.path.abspath(sink.path)} "
                f"failed: {sink.error}",
                file=sys.stderr,
            )
            return EXIT_TELEMETRY_FAILURE
        print(f"\ntelemetry written to {args.telemetry}")

    if args.strict_bounds and monitor.violations:
        print(
            f"error: {len(monitor.violations)} bound violation(s) under "
            "--strict-bounds",
            file=sys.stderr,
        )
        return EXIT_BOUND_VIOLATION
    if engine is not None and engine.breached:
        print(
            f"error: {len(engine.breaches)} SLO breach(es) under --slo",
            file=sys.stderr,
        )
        return EXIT_SLO_BREACH
    return 0


if __name__ == "__main__":
    sys.exit(main())
