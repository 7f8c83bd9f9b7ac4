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
(:mod:`repro.obs.profile`) and records ``profile`` events; with
neither telemetry nor ``--live-export`` to write them to, it is a
usage error.

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
``--capture-wire[=PATH]`` additionally records every protocol message
(sketch ships, ledger charges, oracle queries) to PATH (default
``wire.capture.jsonl``) as a wire-level transcript; render it with
``scripts/wire_report.py`` or diff-replay individual games with
``scripts/wire_replay.py``.  A PATH that is an experiment id (the bare
flag followed by ``e7``) is a usage error, as for ``--live-export``;
a file that really has that name is given as ``./e7``.

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

The obs wiring is :class:`repro.obs.session.ObsSession`, shared with
the serving daemon.

The runner keeps no run history.  Speed history is perfbench's
``--record`` JSONL, read by ``perfbench/compare.py``; output equality
is git plus CI's ``digest-parity`` job, which compares this stdout on
the base commit and on the change.

Exit codes, first match wins: 1 an experiment raised; 3 the telemetry
sink, live export, live port or wire capture could not open, or a
write failed; 2 bound violation under ``--strict-bounds`` (or a usage
error, before anything runs); 6 an SLO rule breached; else 0.  4 an
explicitly requested kernel backend is unavailable; 7 the ``--serve``
smoke's replies diverged from direct evaluation.  Code 5 is unused.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import List, Optional

from repro.errors import ObsError
from repro.experiments.tables import REGISTRY
from repro.obs import memory as obs_memory
from repro.obs import span as obs_span
from repro.obs.session import (
    EXIT_SLO_BREACH,
    EXIT_TELEMETRY_FAILURE,
    ObsSession,
    SetupError,
    parse_slo,
)
from repro.parallel import set_default_jobs

#: Exit code for an experiment that raised (the others still run).
EXIT_EXPERIMENT_FAILURE = 1
#: Exit code for a bound violation under ``--strict-bounds``.
EXIT_BOUND_VIOLATION = 2
#: Exit code for an explicitly requested kernel backend that cannot load.
EXIT_KERNELS_UNAVAILABLE = 4
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
        help="attach the span-attributed profiler and emit profile events "
        "(needs telemetry or --live-export to write them to)",
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
        nargs="?",
        const="wire.capture.jsonl",
        default=None,
        metavar="PATH",
        help="record every protocol message (sketch ships, ledger "
        "charges, oracle queries) to PATH (bare flag: %(const)s; use "
        "the '=' form when experiment ids follow); render with "
        "scripts/wire_report.py",
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
    args = parser.parse_args(argv)

    chosen = args.experiments or list(REGISTRY)
    # Usage errors exit 2 here, before any file (telemetry too) opens.
    for flag, path in (
        ("--capture-wire", args.capture_wire),
        ("--live-export", args.live_export),
    ):
        if path in REGISTRY:
            parser.error(
                f"{flag} took the experiment id {path!r} as its PATH; "
                f"write {flag}=PATH before experiment ids (a file named "
                f"{path} is ./{path})"
            )
    try:
        session = ObsSession(
            telemetry=None if args.no_telemetry else args.telemetry,
            capture=args.capture_wire,
            capture_meta={"run": "run_all", "experiments": chosen},
            live_export=args.live_export,
            metrics_port=args.live_port,
            rules=parse_slo(args.slo, memory_mode=args.memory),
            memory_mode=args.memory,
            profile=args.profile,
        )
    except ObsError as exc:
        parser.error(str(exc))

    if args.list:
        for key in REGISTRY:
            print(key)
        return 0

    if args.serve:
        return _serve_smoke()

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

    # Every sweep and game round below resolves its worker count through
    # this process-wide default (argument > default > $REPRO_JOBS > 1).
    set_default_jobs(args.jobs)
    failed: List[str] = []
    try:
        with session:
            for key in chosen:
                try:
                    with obs_span(f"experiment.{key}"):
                        for table in REGISTRY[key]():
                            table.emit()
                except Exception:
                    failed.append(key)
                    print(f"error: experiment {key} failed:", file=sys.stderr)
                    traceback.print_exc()
                session.checkpoint()
    except SetupError:
        return EXIT_TELEMETRY_FAILURE
    finally:
        set_default_jobs(None)
        _kernels.select_backend(previous_kernels)

    monitor = session.monitor
    if monitor.checks:
        print("\n== Bound certification ==")
        for line in monitor.summary_lines():
            print(line)
        print(
            f"bounds: {len(monitor.checks)} checks, "
            f"{len(monitor.violations)} violations"
        )

    if session.engine is not None:
        print("\n== SLO ==")
        for line in session.engine.summary_lines():
            print(line)
        print(
            f"slo: {len(session.engine.rules)} rules, "
            f"{len(session.engine.breaches)} breaches"
        )

    if failed:
        print(
            f"error: {len(failed)} experiment(s) failed: {' '.join(failed)}",
            file=sys.stderr,
        )
        return EXIT_EXPERIMENT_FAILURE

    code = session.write_failure()
    if code:
        return code
    wire = session.wire
    if wire is not None:
        print(
            f"\nwire capture written to {args.capture_wire}: "
            f"{len(wire)} messages, {wire.total_bits} bits, "
            f"{len(wire.parties())} parties"
        )
    if session.sink is not None:
        print(f"\ntelemetry written to {args.telemetry}")

    if args.strict_bounds and monitor.violations:
        print(
            f"error: {len(monitor.violations)} bound violation(s) under "
            "--strict-bounds",
            file=sys.stderr,
        )
        return EXIT_BOUND_VIOLATION
    return session.slo_failure()


if __name__ == "__main__":
    sys.exit(main())
