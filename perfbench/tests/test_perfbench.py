"""Self-tests of the benchmark.

Run from the repository root:  ``PYTHONPATH=src python -m pytest perfbench/tests -q``
(about three minutes on two cores).  They run the benchmark's own code
and ``run.py`` as a subprocess, the way a caller runs it.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import tracer  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def descendants(pid: int) -> List[int]:
    """PIDs of live processes below ``pid``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out: List[int] = []
    stack = list(children.get(pid, ()))
    while stack:
        child = stack.pop()
        out.append(child)
        stack.extend(children.get(child, ()))
    return out


def alive(pids: Iterable[int]) -> List[int]:
    """The subset of ``pids`` that still exist and are not zombies."""
    out = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            out.append(pid)
    return out


#: Runs a command below a subreaper, so a process the command leaves
#: running is caught even if it ends a moment after the command does.
ADOPT = [sys.executable, str(Path(__file__).resolve().with_name("adopt.py"))]


def adopting(cmd: List[str], **kwargs):
    """Start ``cmd`` under ``adopt.py``: (its process, its report file)."""
    report = Path(tempfile.mkdtemp()) / "adopted.json"
    return subprocess.Popen(ADOPT + [str(report)] + cmd, cwd=ROOT, text=True, **kwargs), report


def adopted(report: Path) -> List[str]:
    """The processes the command left running when it exited."""
    return json.loads(report.read_text())["adopted"]


def _run(*args: str, timeout: float = 170.0):
    proc, report = adopting(RUN + list(args), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, out[-2000:] + err[-2000:]
    assert adopted(report) == []
    return json.loads(out.strip().splitlines()[-1])


def _leftover_tmp():
    tmp = common.build_dir() / "tmp"
    return sorted(tmp.iterdir()) if tmp.exists() else []


@pytest.fixture(scope="module", autouse=True)
def program_env(tmp_path_factory):
    common.apply_program_env(tmp_path_factory.mktemp("perfbench"))


def test_inputs_digest_follows_the_seed():
    import batch
    import serve

    assert common.digest(batch.games_inputs(1)) == common.digest(batch.games_inputs(1))
    assert common.digest(batch.games_inputs(1)) != common.digest(batch.games_inputs(2))
    assert batch.mincut_digest(batch.mincut_inputs(1)) == batch.mincut_digest(batch.mincut_inputs(1))
    assert batch.mincut_digest(batch.mincut_inputs(1)) != batch.mincut_digest(batch.mincut_inputs(2))
    for mixed in (False, True):
        one = serve.build_inputs(1, mixed, 4.0).digest()
        assert one == serve.build_inputs(1, mixed, 4.0).digest()
        assert one != serve.build_inputs(2, mixed, 4.0).digest()


def test_games_results_equal_at_jobs_1_and_2():
    import batch

    inputs = batch.games_inputs(3)
    serial = [batch.games_outcome(op.run()) for op in batch.games_schedule(inputs, jobs=1)]
    pooled = [batch.games_outcome(op.run()) for op in batch.games_schedule(inputs, jobs=2)]
    common.join_pool_workers()
    assert serial == pooled


MOST_WORK = {
    "games": ("foreach_lb.encode", "foreach_lb.decode", "forall_lb.encode", "forall_lb.decode",
              "comm", "linalg.hadamard", "sketch.build", "sketch.query", "graphs.csr.membership",
              "graphs.csr.cut", "kernels.hadamard", "parallel.map"),
    "mincut": ("comm", "graphs.maxflow", "graphs.mincut.stoer_wagner", "graphs.mincut.contraction",
               "graphs.mincut.directed", "kernels.dinic", "localquery.verify_guess",
               "distributed.rescore"),
    "serve_read": ("graphs.csr.cut", "serving.protocol.decode", "serving.protocol.encode", "obs"),
    "serve_mixed": ("sketch.build", "sketch.query", "graphs.maxflow", "graphs.mincut.stoer_wagner",
                    "kernels.dinic", "serving.cache.put", "serving.protocol.decode", "obs"),
}


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def _check_layers(workload, metrics):
    assert set(metrics) == {name for name, _, _ in tracer.PER_LAYER}
    parts = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    total = metrics["bench.traced_total_s"]
    assert parts == pytest.approx(total, rel=1e-9, abs=1e-9)
    for layer in MOST_WORK[workload]:
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["kernels.contract.calls"] == 0


@pytest.mark.parametrize("workload", ["games", "mincut"])
def test_traced_batch_layers_add_up_and_exact_counts_repeat(workload):
    first = _values(_run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1"))
    second = _values(_run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1"))
    _check_layers(workload, first)
    for name in tracer.EXACT_COUNTS:
        assert first[name] == second[name], name
    for layer in tracer.TIMED_LAYERS:
        assert first[f"{layer}.calls"] == second[f"{layer}.calls"], layer


@pytest.mark.parametrize("workload", ["serve_read", "serve_mixed"])
def test_traced_serving_layers_add_up(workload):
    metrics = _values(_run("--workload", workload, "--seed", "5", "--seconds", "8", "--trace", "1"))
    _check_layers(workload, metrics)
    assert metrics["serving.batcher.flushes"] > 0
    if workload == "serve_mixed":
        assert metrics["serving.cache.evictions"] > 0


def test_end_to_end_metrics_and_no_leftovers():
    result = _run("--workload", "serve_read", "--seed", "7", "--seconds", "2")
    assert result["correct"] is True and result["failed"] == 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in benchmark["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert _leftover_tmp() == []


def _daemon_pids(stream, count):
    pids = []
    for line in stream:
        if "daemon pid" in line:
            pids.append(int(line.split()[-1]))
            if len(pids) == count:
                break
    return pids


def test_games_run_leaves_no_process():
    # The pool's shared-memory arena starts multiprocessing's resource
    # tracker, which would outlive the run unless it is stopped.
    result = _run("--workload", "games", "--seed", "4", "--seconds", "1")
    assert result["correct"] is True
    assert _leftover_tmp() == []


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_games_run_leaves_no_process(sig):
    proc, report = adopting(RUN + ["--workload", "games", "--seed", "3", "--seconds", "60"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        for line in proc.stdout:
            if line.startswith("perfbench: workload="):
                break
        time.sleep(2.0)  # inside the timed window, pool workers busy
        started = descendants(proc.pid)
        assert len(started) >= 2  # the benchmark and its children
        proc.send_signal(sig)  # passed on to the benchmark
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 128 + sig
    assert '"correct"' not in out
    assert adopted(report) == []
    assert alive(started) == []
    assert _leftover_tmp() == []


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_serving_run_leaves_no_process(sig):
    proc, report = adopting(RUN + ["--workload", "serve_read", "--seed", "3", "--seconds", "60"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        pids = _daemon_pids(proc.stderr, 3)  # two set-up probes, then the measured daemon
        time.sleep(3.0)  # inside the timed window
        started = set(pids) | set(descendants(proc.pid))
        assert alive(pids[-1:]) == pids[-1:]
        proc.send_signal(sig)  # passed on to the benchmark
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 128 + sig
    assert '"correct"' not in out
    assert adopted(report) == []
    assert alive(started) == []
    assert _leftover_tmp() == []


def test_failed_check_fails_the_run_and_cleans_up():
    code = (
        "import sys; sys.path.insert(0, 'perfbench')\n"
        "import run, serve\n"
        "serve.ServeWorkload.checks = lambda self, load: ['deliberately failed check']\n"
        "sys.exit(run.main(sys.argv[1:]))\n"
    )
    proc, report = adopting(
        [sys.executable, "-c", code, "--workload", "serve_read", "--seed", "3", "--seconds", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 1
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    pids = [int(line.split()[-1]) for line in err.splitlines() if "daemon pid" in line]
    assert len(pids) == 3
    assert alive(pids) == []
    assert adopted(report) == []
    assert _leftover_tmp() == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "games", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
