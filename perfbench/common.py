"""Shared plumbing for the benchmark: paths, run conditions, /proc readers,
statistics and the lifetime of every process the benchmark starts.

Nothing here imports :mod:`repro`; the modules that measure the program
import it lazily, after ``run.py`` has pointed ``sys.path`` at ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing as mp
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def build_dir() -> Path:
    """Where compiled kernels, bytecode and scratch files go (git-ignored).

    ``CARGO_TARGET_DIR`` names it when set (relative paths resolve
    against the checkout); otherwise ``.bench_build`` in the checkout.
    """
    raw = os.environ.get("CARGO_TARGET_DIR", "").strip()
    path = Path(raw) if raw else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def apply_program_env(tmpdir: Path) -> None:
    """Give this process the environment :func:`program_env` describes."""
    import tempfile

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(program_env(tmpdir))
    tempfile.tempdir = str(tmpdir)
    sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env(tmpdir: Path) -> Dict[str, str]:
    """Environment for the program: its sources, a kernel cache and a
    temporary directory inside the checkout, and no ``REPRO_*`` override
    from the caller's shell (backend, jobs and transport stay at their
    defaults, which the run records)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_KERNELS_CACHE"] = str(build_dir() / "repro-kernels")
    env["PYTHONPYCACHEPREFIX"] = str(build_dir() / "pycache")
    env["TMPDIR"] = str(tmpdir)
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def derive_seeds(seed: int, label: str, count: int) -> List[int]:
    """``count`` independent 63-bit seeds for one input family."""
    import numpy as np

    tag = int(hashlib.sha256(label.encode()).hexdigest()[:8], 16)
    draws = np.random.default_rng([seed, tag]).integers(0, 2**63 - 1, size=count)
    return [int(s) for s in draws]


def digest(obj) -> str:
    """sha256 of canonical JSON (sorted keys, minimal separators)."""
    body = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(body.encode()).hexdigest()


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def host_cpu_times() -> List[int]:
    """The aggregate ``cpu`` line of /proc/stat, in ticks."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_fraction(before: List[int], after: List[int]) -> float:
    """Share of host CPU time stolen by the hypervisor between readings."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is already in user
    return delta[7] / total if total > 0 else 0.0


def process_cpu_s(pid: int) -> float:
    """User+system CPU seconds of one live process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def process_status_kb(pid: int, key: str) -> int:
    """A ``kB`` field of /proc/<pid>/status (``VmHWM``, ``VmRSS``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def conditions(backend) -> Dict[str, object]:
    """What a result depends on besides the code: recorded with every run."""
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "backend": f"{backend.name}/{backend.source}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------


class Children:
    """Every subprocess the benchmark starts, so each exit path stops them.

    A child is registered the moment ``Popen`` returns, before anything
    else can raise, and :meth:`stop_all` runs from ``finally`` blocks and
    signal-driven unwinding alike.
    """

    def __init__(self) -> None:
        #: Each child, and whether it leads its own process group.
        self._procs: List[Tuple[subprocess.Popen, bool]] = []

    def spawn(self, cmd: Sequence[str], new_session: bool = True, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(list(cmd), start_new_session=new_session, **kwargs)
        self._procs.append((proc, new_session))
        return proc

    @staticmethod
    def stop(proc: subprocess.Popen, grace_s: float = 5.0, own_group: bool = True) -> None:
        """Terminate, wait a bounded time, then kill the process group.

        The group is killed even when its leader has already ended, so a
        process the child left in its group goes with it.
        """
        if proc.poll() is None:
            try:
                proc.terminate()
                proc.wait(timeout=grace_s)
            except (ProcessLookupError, subprocess.TimeoutExpired):
                pass
        if own_group:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=grace_s)

    def stop_all(self) -> None:
        while self._procs:
            proc, own_group = self._procs.pop()
            self.stop(proc, own_group=own_group)


def join_pool_workers(timeout_s: float = 10.0) -> None:
    """Reap every ``multiprocessing`` child (the program's pool workers).

    The pool shuts its executor down without waiting, so workers of the
    last map may still be exiting; their CPU time reaches
    ``RUSAGE_CHILDREN`` only once they are reaped.  Survivors of the
    timeout are terminated, then killed.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        alive = mp.active_children()
        if not alive:
            return
        if time.monotonic() >= deadline:
            break
        for proc in alive:
            proc.join(timeout=0.05)
    for proc in mp.active_children():
        proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)


_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt the orphans of this process's descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so a process a child leaves behind is
    reparented here, where :func:`reap_descendants` stops it, instead
    of to init."""
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    return prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def stop_resource_tracker() -> None:
    """Stop ``multiprocessing``'s resource tracker and wait for it.

    The pool's shared-memory arena starts the tracker, a separate
    process that ignores SIGINT and SIGTERM and otherwise ends only
    after this process has, so it would outlive the run.  Closing its
    pipe makes it unlink anything left registered and exit.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (ChildProcessError, OSError):
            pass


def child_pids(parent: int) -> List[int]:
    """PIDs whose parent is ``parent``, zombies included."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == parent:
            out.append(int(entry))
    return out


def _reap_exited() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_descendants(grace_s: float = 5.0, limit_s: float = 20.0) -> List[int]:
    """Stop every process still below this one and wait until each has ended.

    Meant to run last, after the orderly stops, so whatever it finds was
    left behind: SIGTERM, then SIGKILL once ``grace_s`` has passed.
    With :func:`become_subreaper` in effect, grandchildren orphaned on
    the way are adopted and stopped too.  Returns the PIDs it stopped.
    """
    me = os.getpid()
    began = time.monotonic()
    termed: Dict[int, float] = {}
    killed: Set[int] = set()
    while time.monotonic() - began < limit_s:
        _reap_exited()
        pids = child_pids(me)
        if not pids:
            break
        now = time.monotonic()
        for pid in pids:
            try:
                if pid not in termed:
                    termed[pid] = now
                    os.kill(pid, signal.SIGTERM)
                elif pid not in killed and now - termed[pid] >= grace_s:
                    killed.add(pid)
                    os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.01)
    return sorted(termed)


def install_signal_exit() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks run; SIGINT
    already raises ``KeyboardInterrupt``."""

    def _exit(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)
    signal.signal(signal.SIGINT, signal.default_int_handler)
