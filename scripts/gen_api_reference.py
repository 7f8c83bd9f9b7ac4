#!/usr/bin/env python
"""Regenerate docs/API.md from the package's public ``__all__`` exports.

Usage: ``python scripts/gen_api_reference.py`` from the repository root.
Kept as a checked-in script so the reference never drifts from the code:
CI's lint job re-runs it and fails when ``docs/API.md`` differs.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Hand-written prose inserted after a package's generated table.
EXTRA_SECTIONS = {
    "repro.graphs": """\
### CSR kernel layer

`DiGraph.freeze()` / `UGraph.freeze()` return a cached `CSRGraph` — an
immutable integer-indexed snapshot (node labels interned to `0..n-1`,
edges in flat `tails`/`heads`/`weights` arrays with CSR index pointers
for both adjacency directions).  The snapshot is invalidated and rebuilt
automatically when the graph mutates; repeated `freeze()` calls between
mutations return the same object.

The snapshot's batch kernels evaluate many cuts per call:

| kernel | computes |
|---|---|
| `cut_weights(M)` | `w(S_k, V\\S_k)` for every row of a boolean membership matrix `M` |
| `cut_weights_both(M)` | forward and backward cut values in one pass (balance scans) |
| `weights_between(Msrc, Mdst)` | `w(S_k, T_k)` for paired row sets |
| `out_weight_vector()` etc. | per-node degree/weight/imbalance vectors |
| `max_flow(s, t)` | integer-indexed Dinic over residual arcs built from the snapshot |

Consumers: `all_directed_cut_values(engine="csr")` (default; the
`"dict"` engine is the reference implementation), sketch `query_many`
batch probes, sketch `query_rows` (membership rows over another
snapshot's labels, mapped by `reindex_membership`), the lower-bound
decoders' cut-probe loops, and
`balance.py`'s exact scans.  `batched_cut_weights(graph, sides)` is the
one-call convenience wrapper.  Equivalence with the dict path is
property-tested in `tests/graphs/test_csr_equivalence.py`; timings are
the `graphs.csr.cut` rows of `python3 perfbench/run.py --workload games
--trace 1`.
""",
    "repro.obs": """\
### Observability

All instrumentation hangs off one global switch: `obs.enable(sink)` /
`obs.disable()` (or the `obs.enabled(...)` context manager for scoped
use).  While the switch is off every instrumentation site costs one
attribute load and a branch; the `games` and `mincut` workloads of
`perfbench/` run that way.

Three coordinated pieces:

* **Metrics** — `count` / `observe` / `set_gauge` feed the global
  `REGISTRY` under dotted names (`oracle.query.degree`,
  `comm.wire_bits`, `sketch.size_bits`, `csr.cut_weights.rows`,
  `distributed.round_trips`, ...).  The always-on tallies of
  `QueryCounter` and `BitLedger` live in *private* registries (they are
  the theorems' measured quantities) and mirror into the global one
  when the switch is on.
* **Spans** — `with span("decode.foreach", n=n): ...` records nested
  wall time plus the global-metric delta attributable to the region;
  disabled spans are a shared null object.
* **Events** — `JsonlSink` / `ListSink` receive span, row, and
  `summary` records; `python -m repro.experiments.run_all` writes
  `telemetry.jsonl` and `scripts/trace_report.py` (or
  `repro.obs.report`) folds it back into harness tables, with a
  two-run `--diff` mode.

### Bound certification (`repro.obs.bounds`)

`BoundSpec` declares one certified envelope: a name, the theorem tag,
the printed table `column` that carries the measured value, the
predicted curve as a function of the construction parameters
`(n, m, beta, eps, k, ...)`, a direction (`lower` / `upper` / `band`),
and a multiplicative `slack` absorbing the constants and polylogs
hidden in Õ/Ω̃.  The module registry ships with the Thm 1.1
(`n·√β/ε`, lower), Thm 1.2 (`n·β/ε²`, lower), Thm 1.3
(`min{2m, m/(ε²k)}`, band) and Thm 5.7 (same curve, upper) envelopes.

`BoundMonitor` receives one observation per experiment-table row —
tables opt in with `Table(bounds=["thm13.queries"], meta={"m": m,
"k": k})` — checks it immediately, emits a `bound_check` event, and on
`finish()` fits the empirical log-log scaling exponent of each sweep
against the envelope's exponent on the same points (`kind="fit"`
checks; a table can redirect its fit variable with
`bounds=[("thm13.queries", {"sweep": "k"})]`).  A row without the
spec's column is reported as skipped.  Every `run_all` prints the
verdicts; `--strict-bounds` exits 2 on any violation, and
`make bounds-check` wraps this.

### Span-attributed profiler (`repro.obs.profile`)

`SpanProfiler` answers *where inside each span* wall time went.
`mode="deterministic"` (default) installs a `sys.setprofile` hook that
charges self-time between consecutive profile events to the function on
top of the call stack under the currently active span path (exact call
counts, noticeable slowdown); `mode="sampling"` snapshots the main
thread's stack every `interval` seconds from a daemon thread (
statistical counts, near-zero overhead).  Nothing is installed until
`start()` — importing the module costs nothing on the disabled path.
`emit_events()` lands the aggregates in telemetry as `profile` events,
which `scripts/trace_report.py` renders as a per-span hot-function
table; `run_all --profile` wires this end to end.

### Measured-space profiler (`repro.obs.memory`)

`MemoryProfiler` answers *how many bytes* the run actually held, next
to the theoretical bit costs the theorems bound.  `mode="sample"`
(default) runs a daemon thread reading `VmRSS`/`VmHWM` from
`/proc/self/status` (getrusage fallback) every `interval` seconds;
`mode="trace"` adds `tracemalloc` and, at every span boundary, charges
the allocation interval's net/peak bytes to the active span path — the
same self-time model `SpanProfiler` uses for wall time.  While a
profiler is active, `deep_footprint()` walks core structures as they
are built (sketches beside their `size_bits()`, CSR snapshots,
shared-memory result arenas; `deep_sizeof` is id-memoised and prices
instance dicts as materialised copies so measurements are
deterministic across worker counts), so every sketch row carries a
measured-bytes/theoretical-bits ratio.  Everything is emitted as
`memory` telemetry events (`kind: rss | span | footprint`) that the
live aggregator, `obs_watch`'s memory panel, the `repro_memory_*`
Prometheus gauges, `trace_report --memory-top`, and the `mem:`/`rss:`
SLO rules all consume.  Under `run_all --memory`, E1b/E2b print their
sketches' mean bytes as `sketch_bytes` and E3/E3b each oracle's bytes
as `oracle_bytes`, and the `SpaceBoundSpec` entries
(`thm11.space_bytes`, `thm12.space_bytes`, `thm13.space_bytes`) certify
those columns against the Thm 1.1/1.2/1.3 envelopes
(`run_all --memory --strict-bounds`).  Nothing is installed until
`start()`, and CI's digest matrix checks that `run_all --memory` prints
identical stdout at jobs 1 and 2.

### Wire capture (`repro.obs.capture`)

`WireCapture` records every message crossing an instrumented path as a
`WireMessage` — `(seq, sender, receiver, kind, bits, payload digest,
enclosing span path)` — making the wire itself observable: the summed
`bits` of a transcript reconcile *exactly* with the `comm.*` /
`distributed.*` counters and `BitLedger` totals (zero-cost messages
such as answers, decisions, and oracle query requests carry `bits=0`).
Instrumentation sites (one-way protocol sends, `BitLedger.charge`, the
foreach/forall games, distributed ship/query traffic, local-query
oracle calls) call the module-level `capture.record(...)` hook, a
two-branch no-op unless the global switch is on *and* a capture is
installed via `capture.install(...)` / the `capturing(...)` context
manager.  `payload_digest` hashes a canonical encoding
(graphs digest as sorted edge lists, numpy scalars normalise through
int/float) so transcripts from separate processes are byte-comparable;
`first_divergence(a, b)` pinpoints the first mismatching message.
Transcripts persist as JSONL (`save`/`load`, or stream through a
`sink`); `repro.obs.replay.run_captured_game` / `replay_capture` play
seeded games under capture and re-verify them from the header alone
(CLI: `scripts/wire_replay.py`, `make wire-check`;
`run_all --capture-wire` captures a full experiment run).

### Live telemetry bus (`repro.obs.live`)

`LiveBus` is a synchronous in-process pub/sub hub over the same record
flow the sinks see.  While a bus is installed (`live.install(bus)` /
the `live.publishing(...)` context manager), `sink.emit` tees every
telemetry record onto it — even with no sink attached —
`capture.record` tees wire messages, and `repro.parallel` streams
worker `heartbeat` records plus `live.tick` clock pulses.  With no bus
installed the tee is one attribute load and an `is None` branch.
`SlidingWindow` keeps time-bounded `(ts, value)` samples with
nearest-rank quantiles that match `Histogram.quantile` exactly, and
`LiveAggregator` folds the stream into windowed span latencies, bound
slack margins (`bound_margin`: ≥ 1 means inside the certified
envelope), per-worker liveness, and counter rates.  Subscriber
exceptions are contained on `bus.errors` — live observability never
takes the experiment down.

### SLO engine (`repro.obs.slo`)

`SloRule` states one objective in measured terms; `parse_spec` reads a
compact `;`-separated grammar (or a JSON rule file):
`metric:NAME<=V`, `span:PATH:pNN<=SECONDS`, `bound:SPEC>=FLOOR`
(`bound:*` expands over every registered bound spec), and
`stall:SECONDS` (worker heartbeat age).
`SloEngine` subscribes to the live bus, evaluates per window on every
`live.tick`, emits one `slo.violation` event per breached
`(rule, subject)`, and breaches immediately on an actual `bound_check`
violation.  `run_all --slo[=SPEC]` wires this end to end and exits 6
on any breach (`default_rules()` = margin floor 1.0 on every certified
bound + a 30 s stall rule); `make slo-check` wraps it.

### Live exporters (`repro.obs.exporters`)

`prometheus_text` renders the metrics registry (counters as `_total`,
histograms as summaries with `quantile` labels, plus worker/violation/
margin gauges from an aggregator) in the Prometheus text exposition
format, deterministically; `MetricsServer` serves it from a daemon
thread (`GET /metrics`, `GET /snapshot`; `run_all --live-port N`).
`JsonlExporter` streams every bus record to a JSONL file flushed per
record, adding a full `live.snapshot` frame on each tick
(`run_all --live-export[=PATH]`); `scripts/obs_watch.py --follow
live.jsonl` (or `--url http://...`) renders either as a live ASCII
dashboard (`make obs-watch`).

### Trace export (`repro.obs.export`)

`chrome_trace(events)` converts telemetry/capture records into Chrome
trace-event JSON loadable in Perfetto or `chrome://tracing`: spans
become duration (`ph="X"`) events on a dedicated lane, wire messages
become instants on per-party lanes joined by flow arrows (`ph="s"/"f"`,
keyed by `seq`).  `validate_chrome_trace` checks a document against the
trace-event schema (used by `write_chrome_trace`, which refuses to
write an invalid trace); `collapsed_stacks(events)` folds `profile`
events into collapsed-stack lines (`span;path;func microseconds`) for
standard flamegraph tooling.  `scripts/wire_report.py` drives both
(`--trace`, `--flame`) plus a terminal message-lane diagram.
""",
    "repro.kernels": """\
### Kernel backends

Runtime-selected compute backends for the hot kernels — Dinic
max-flow over flat arc arrays (addresses taken once per residual
network), Stoer–Wagner global min cut over a dense weight matrix,
batched Karger contraction runs over CSR rows (bit-identical to a
contraction over neighbour dicts, step totals added as the running
interpreter's `sum()` adds them), Karger–Stein edge contraction over an
array union-find, and Lemma 3.2 Hadamard row products / decoding.
Selection order is `--kernels {auto,python,native}` on
`run_all` (installed via `select_backend`) → the `REPRO_KERNELS`
environment variable → `auto`.  `auto` loads the native backend (a C
library compiled on demand into `REPRO_KERNELS_CACHE`, default
`~/.cache/repro-kernels`) and **degrades silently to the python
reference** when no C compiler exists; an *explicit* `native`
selection raises `KernelUnavailableError` instead (`run_all` exits 4).

The parity guarantee is bit-identity, not approximation: native
kernels mirror the reference operation for operation — same traversal
order, same float accumulation order, same consumption of pre-drawn
uniform streams — so flows, cuts, and codewords are equal at the
`==`/`array_equal` level (`tests/kernels/test_parity.py`,
`tests/kernels/test_stoer_wagner.py`, pinned seeds in
`tests/graphs/test_karger_kernel_regression.py`).  The backend in
use is reported through the `kernels.backend.<name>` obs counter and
on `run_all`'s stderr.  CI's digest matrix checks that `run_all`
prints identical stdout with `--kernels python` and with native.
""",
    "repro.parallel": """\
### Parallel trial execution

`TrialPool(jobs, timeout, chunk_factor)` fans a list of independent
trials out over forked worker processes, started for each `map` and
joined before it returns; `run_trials(fn, n_trials, rng, jobs)` is the
seeded form every multi-trial loop uses (foreach / forall game rounds,
local-query seed sweeps, `harness.sweep`, E1–E9).
Worker count resolves explicit argument → `set_default_jobs` (what
`run_all --jobs N` installs) → the `REPRO_JOBS` environment variable →
serial; `jobs <= 0` means all cores, and `resolve_jobs` returns 1
inside a worker so pools never nest.

The engine's contract is **bit-identity with the serial path for any
worker count**: trial seeds are drawn up front via
`utils.rng.spawn_seeds` (advancing the parent generator exactly as
`spawn_rngs` would), closures travel to workers by fork inheritance
(no pickling), and chunk results plus per-worker observability deltas
merge back in trial order (`repro.parallel.obsmerge`), so counters,
histogram sample sequences, wire transcripts, and even non-associative
float reductions reproduce the serial run byte for byte.  Crashed or
hung workers get one retry on a fresh process with the same spawned
seed; a second failure raises `ParallelError` naming the trial index —
never a silent partial table.  A trial that raises, or whose result
cannot be pickled, raises `ParallelError` naming it at once.
`tests/parallel/test_determinism.py` checks this at several worker
counts, and CI's digest matrix checks that `run_all` prints identical
stdout at jobs 1 and 2.

Numeric result tables (uniform floats, ints, or same-shape ndarrays)
travel back through a preallocated `multiprocessing.shared_memory`
arena (`repro.parallel.shmipc`) instead of the workers' pickle pipes
— only a small descriptor crosses the pipe; anything non-numeric
falls back to pickle per chunk, and `REPRO_SHM=0` disables the arena
entirely (`REPRO_SHM_SLOT_BYTES` sizes the per-chunk slots).  Either
transport returns value-identical lists; the last `map`'s split is on
`TrialPool.last_transport_stats`.
""",
}

_SERVING_EXTRA = """\
### The serving daemon

`python -m repro.serving.server --port 0` boots a long-lived asyncio
daemon announcing its bound endpoint on stderr (`serving: tcp://...`,
parsed race-free by `repro.obs.announce.read_announcement`).  It holds
frozen `CSRGraph` snapshots content-addressed by their graph oid in a
measured-bytes LRU (`SnapshotCache`), coalesces concurrent
`serve.cut_weight` requests into vectorized `cut_weights_stable` calls
(`MicroBatcher`: row-count, depth-stable probe, and window triggers),
and answers for-all sketch queries and Theorem 5.7 shard ops.  Because
the kernel is row-stable, batching never changes response bytes —
`tests/serving/test_server.py` checks this across batch settings, and
perfbench's `serve_read`/`serve_mixed` workloads check every served
value.  `--metrics-port`, `--slo`, and `--capture`
wire the daemon into the live metrics/SLO/wire-capture stack; see
EXPERIMENTS.md, "Serving tier".
"""

EXTRA_SECTIONS["repro.serving"] = _SERVING_EXTRA

PACKAGES = [
    "repro.graphs",
    "repro.kernels",
    "repro.obs",
    "repro.linalg",
    "repro.comm",
    "repro.sketch",
    "repro.streaming",
    "repro.foreach_lb",
    "repro.forall_lb",
    "repro.localquery",
    "repro.distributed",
    "repro.serving",
    "repro.experiments",
    "repro.parallel",
    "repro.utils",
]


def describe(obj) -> tuple:
    """(kind, one-line summary) for a public object."""
    if inspect.isclass(obj):
        kind = "class"
    elif inspect.isfunction(obj):
        kind = "function"
    elif callable(obj):
        kind = "callable"
    else:
        kind = "constant"
    if kind == "constant":
        summary = repr(obj)
        if len(summary) > 60:
            summary = summary[:57] + "..."
    else:
        doc = (inspect.getdoc(obj) or "").strip().splitlines()
        summary = doc[0] if doc else ""
    return kind, summary.replace("|", "\\|")


def main() -> None:
    lines = [
        "# API reference",
        "",
        "One line per public name, generated from package `__all__` exports",
        "(`python scripts/gen_api_reference.py` regenerates this file).",
        "",
    ]
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        lines.append(f"## `{package_name}`")
        lines.append("")
        doc = (package.__doc__ or "").strip().splitlines()
        if doc:
            lines.append(doc[0])
            lines.append("")
        lines.append("| name | kind | summary |")
        lines.append("|---|---|---|")
        for name in sorted(getattr(package, "__all__", [])):
            kind, summary = describe(getattr(package, name))
            lines.append(f"| `{name}` | {kind} | {summary} |")
        lines.append("")
        extra = EXTRA_SECTIONS.get(package_name)
        if extra:
            lines.append(extra)
    os.makedirs("docs", exist_ok=True)
    with open("docs/API.md", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote docs/API.md ({len(lines)} lines)")


if __name__ == "__main__":
    main()
