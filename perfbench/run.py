"""The repository's benchmark: lower-bound games, min-cut solvers and the
serving daemon, end to end and per layer.

    python3 perfbench/run.py --workload {games,mincut,serve_read,serve_mixed}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs untraced for half the time, then traced, and prints
the per-layer metrics.  Human-readable lines (run conditions, each
metric with its unit and sample count, failed checks) come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every output check passed, 1 when one failed, 2 when there is nothing
to measure (no ``src/repro`` in the checkout), and 128+signal when
interrupted.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    ROOT,
    SRC,
    Children,
    apply_program_env,
    become_subreaper,
    build_dir,
    conditions,
    install_signal_exit,
    join_pool_workers,
    median,
    percentile,
    program_env,
    reap_descendants,
    stop_resource_tracker,
)
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
WORKLOADS = ("games", "mincut", "serve_read", "serve_mixed")
#: Set-ups per run: this process's own plus fresh-process probes.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120.0

#: (result, human-readable lines, failed checks, host conditions) of a run.
Outcome = Tuple[Dict[str, Any], List[str], List[str], Dict[str, float]]

#: Units of the end-to-end metrics every run prints.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "cpu_ms_per_op": "ms",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}
#: The ones the result line carries: host CPU steal on a shared VM moves
#: throughput and latency by more than any bound up to 25% absorbs, while
#: these stay put (see README.md, "Why only three are gated").
GATED = ("setup_s", "cpu_ms_per_op", "peak_rss_mb")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", type=Path, default=None,
        help="append this run's conditions and result as one JSON line (see compare.py)",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _make(args, tmpdir: Path, children: Children, own_session: bool = True):
    if args.workload in ("games", "mincut"):
        from batch import BatchWorkload

        return BatchWorkload(args.workload, args.seed)
    from serve import ServeWorkload

    return ServeWorkload(args.workload, args.seed, children, tmpdir, args.seconds, own_session)


def _prepare(tmpdir: Path) -> None:
    """Untimed: compile the kernels into the build directory's cache and
    byte-compile the sources, so no set-up pays a one-time compile."""
    code = (
        "import compileall, sys\n"
        "from repro.kernels import get_backend\n"
        "get_backend()\n"
        f"compileall.compile_dir({str(SRC / 'repro')!r}, quiet=1)\n"
        f"compileall.compile_dir({str(HERE)!r}, quiet=1, maxlevels=0)\n"
    )
    subprocess.run([sys.executable, "-c", code], env=program_env(tmpdir), check=True,
                   timeout=600, stdout=subprocess.DEVNULL)


def _probe(args, tmpdir: Path, children: Children) -> float:
    """One set-up in a fresh process (its daemon shares its session)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = children.spawn(cmd, stdout=subprocess.PIPE, env=program_env(tmpdir), cwd=str(ROOT))
    out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return float(json.loads(out.decode().strip().splitlines()[-1])["setup_s"])


def _setup(args, tmpdir: Path, children: Children, own_session: bool = True) -> Tuple[Any, float]:
    began = time.perf_counter()
    workload = _make(args, tmpdir, children, own_session)
    workload.setup()
    return workload, time.perf_counter() - began


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"perfbench: {name} = {value:.6g} {unit} ({note})"


def _batch_run(args, workload, setup_samples: List[float]) -> Outcome:
    window = workload.run_passes(args.seconds)
    passes = len(window.segments)
    metrics = {
        "setup_s": median(setup_samples),
        "ops_per_s": window.median_of("ops_per_s"),
        "cpu_ms_per_op": 1e3 * window.cpu_s / max(window.ops, 1),
        "latency_p50_ms": window.median_of("latency_p50_ms"),
        "latency_p90_ms": window.median_of("latency_p90_ms"),
        "latency_p99_ms": window.median_of("latency_p99_ms"),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    op = "round" if args.workload == "games" else "solve"
    per_pass = f"median over {passes} passes of {len(window.latencies_ms)} latency samples"
    notes = {
        "setup_s": f"median of n={len(setup_samples)} set-ups",
        "ops_per_s": f"{per_pass} in {window.wall_s:.2f} s",
        "cpu_ms_per_op": f"process and pool workers over the window, n={window.ops} {op}s",
        "latency_p50_ms": f"per {op}, {per_pass}",
        "latency_p90_ms": f"per {op}, {per_pass}",
        "latency_p99_ms": f"per {op}, {per_pass}",
        "peak_rss_mb": "max of the process and its pool workers",
    }
    lines = [_line(k, v, END_TO_END_UNITS[k], notes[k]) for k, v in metrics.items()]
    lines.append(_line("error_rate", window.failed / max(window.attempted, 1), "fraction",
                       f"failed {window.failed} of {window.attempted} attempted"))
    lines.append(_line("host.steal_frac", window.steal, "fraction", "over the timed window"))
    lines.extend(f"perfbench: error: {error}" for error in window.errors[:5])
    result = {"attempted": window.attempted, "failed": window.failed,
              "metrics": {name: metrics[name] for name in GATED}}
    return result, lines, window.problems, {"host.steal_frac": window.steal}


def _serve_summary(args, measured: Dict[str, Any]) -> Tuple[Dict[str, float], List[str], Dict]:
    from serve import segment_stats

    load = measured["load"]
    seg = segment_stats(load)
    metrics = {
        "ops_per_s": seg["ops_per_s"],
        "cpu_ms_per_op": seg["cpu_ms_per_op"],
        "latency_p50_ms": seg["latency_p50_ms"],
        "latency_p90_ms": seg["latency_p90_ms"],
        "latency_p99_ms": seg["latency_p99_ms"],
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    start = "due time" if args.workload == "serve_mixed" else "send"
    per_seg = f"median over {seg['segments']} segments; {len(load.reads)} reads, {load.ops} ops"
    notes = {
        "ops_per_s": per_seg,
        "cpu_ms_per_op": f"daemon CPU, {per_seg}",
        "latency_p50_ms": f"reads from {start}, {per_seg}",
        "latency_p90_ms": f"reads from {start}, {per_seg}",
        "latency_p99_ms": f"reads from {start}, {per_seg}",
        "peak_rss_mb": "daemon VmHWM",
    }
    lines = [_line(k, v, END_TO_END_UNITS[k], notes[k]) for k, v in metrics.items()]
    if load.writes:
        writes = [1e3 * (end - due) for due, end in load.writes]
        lines.append(_line("write_latency_p50_ms", median(writes), "ms",
                           f"write sessions from due time, n={len(writes)}"))
    lines.append(_line("error_rate", load.failed / max(load.attempted, 1), "fraction",
                       f"failed {load.failed} of {load.attempted} attempted"))
    info = {
        "host.steal_frac": measured["steal"],
        "loadgen.cpu_ms_per_op": 1e3 * measured["loadgen_cpu_s"] / max(load.ops, 1),
    }
    lines.append(_line("host.steal_frac", info["host.steal_frac"], "fraction", "over the timed window"))
    lines.append(_line("loadgen.cpu_ms_per_op", info["loadgen.cpu_ms_per_op"], "ms", "load generator CPU"))
    if load.late_ms:
        lines.append(_line("loadgen.late_p99_ms", percentile(load.late_ms, 99), "ms",
                           f"send lateness, n={len(load.late_ms)}"))
    return metrics, lines, info


def _serve_run(args, workload, setup_samples: List[float]) -> Outcome:
    measured = workload.measure(args.seconds)
    metrics, lines, info = _serve_summary(args, measured)
    metrics = {"setup_s": median(setup_samples), **metrics}
    lines.insert(0, _line("setup_s", metrics["setup_s"], "s",
                          f"median of n={len(setup_samples)} set-ups"))
    load = measured["load"]
    for error in load.errors[:5]:
        lines.append(f"perfbench: error: {error}")
    result = {"attempted": load.attempted, "failed": load.failed,
              "metrics": {name: metrics[name] for name in GATED}}
    return result, lines, workload.checks(load), info


def _traced_run(args, workload) -> Outcome:
    """Untraced for half the time, then traced: per-layer metrics."""
    half = args.seconds / 2.0
    if args.workload in ("games", "mincut"):
        untraced = workload.run_passes(half)
        base_rate = untraced.ops / untraced.wall_s
        window, rows = workload.traced_pass()
        rate = window.ops / window.wall_s
        rows.update({
            "loadgen.cpu_ms_per_op": 0.0,
            "loadgen.late_p99_ms": 0.0,
            "host.steal_frac": window.steal,
            "serving.batcher.flushes": 0.0,
            "serving.batcher.width": 0.0,
            "serving.batcher.queue_wait_s": 0.0,
            "serving.cache.hit_rate": 0.0,
            "serving.cache.evictions": 0.0,
            "obs.rss_growth_kb_per_kop": 0.0,
        })
        attempted, failed, problems = window.attempted, window.failed, window.problems
    else:
        from serve import serving_layer_rows

        base = workload.measure(half)["load"]
        base_rate = base.ops / (base.ended - base.began)
        workload.start_daemon(traced=True)
        measured = workload.measure(half, traced=True)
        load = measured["load"]
        rate = load.ops / (load.ended - load.began)
        rows = serving_layer_rows(measured)
        rows.update({
            "loadgen.cpu_ms_per_op": 1e3 * measured["loadgen_cpu_s"] / max(load.ops, 1),
            "loadgen.late_p99_ms": percentile(load.late_ms, 99) if load.late_ms else 0.0,
            "host.steal_frac": measured["steal"],
            "parallel.worker_busy_s": 0.0,
            "parallel.efficiency": 0.0,
            "parallel.dispatch_s": 0.0,
            "parallel.retries": 0.0,
        })
        attempted, failed, problems = load.attempted, load.failed, workload.checks(load)
    rows["bench.trace_overhead"] = rate / base_rate if base_rate else 0.0
    metrics = {}
    lines = []
    for name, unit, _better in PER_LAYER:
        metrics[name] = rows[name]
        lines.append(_line(name, rows[name], unit, "traced run"))
    info = {"host.steal_frac": rows["host.steal_frac"]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, lines, problems, info


def _run(args, tmpdir: Path, children: Children) -> int:
    if args.setup_only:
        workload, setup_s = _setup(args, tmpdir, children, own_session=False)
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    _prepare(tmpdir)
    samples = [] if args.trace else [_probe(args, tmpdir, children) for _ in range(SETUP_SAMPLES - 1)]
    workload, own_setup = _setup(args, tmpdir, children)
    try:
        cond = conditions(workload.backend)
        print(
            f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
            f"cores={cond['cores']} backend={cond['backend']} python={cond['python']} "
            f"numpy={cond['numpy']} inputs={workload.input_digest[:16]}",
            flush=True,
        )
        if args.trace:
            result, lines, problems, info = _traced_run(args, workload)
        elif args.workload in ("games", "mincut"):
            result, lines, problems, info = _batch_run(args, workload, samples + [own_setup])
        else:
            result, lines, problems, info = _serve_run(args, workload, samples + [own_setup])
    finally:
        workload.close()
    for line in lines:
        print(line)
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}")
    units = {name: unit for name, unit, _ in PER_LAYER} if args.trace else END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }
    if args.record is not None:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                 "conditions": {**cond, **info}, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} is missing; there is no program to measure",
              file=sys.stderr)
        return 2
    install_signal_exit()
    become_subreaper()
    tmp_root = build_dir() / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    apply_program_env(tmpdir)
    children = Children()
    try:
        return _run(args, tmpdir, children)
    except KeyboardInterrupt:
        return 128 + signal.SIGINT
    finally:
        # A second signal must not cut the clean-up short.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        children.stop_all()
        join_pool_workers()
        stop_resource_tracker()
        leftover = reap_descendants()
        if leftover:
            print(f"perfbench: stopped leftover processes {leftover}", file=sys.stderr, flush=True)
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
