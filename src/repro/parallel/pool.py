"""Process-pool trial execution with deterministic results and telemetry.

The repository's experiments are embarrassingly parallel at the *trial*
level — lower-bound game rounds, sweep configurations, benchmark
repetitions — but every hot loop ran serially before this module.  The
engine here fans trials out over a forked
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping two
promises the rest of the repo depends on:

**Bit-identical results.**  :func:`run_trials` draws one canonical seed
per trial from the caller's generator via
:func:`repro.utils.rng.spawn_seeds` *before* any scheduling decision, so
the randomness a trial sees depends only on ``(parent seed, trial
index)`` — never on the worker count, chunking, or completion order.
The serial path (``jobs=1``, no ``fork``, or one item) runs the exact
code a pre-parallel caller ran; any ``jobs`` produces byte-identical
tables and transcripts.

**Reconciled telemetry.**  Each chunk runs between
:func:`~repro.parallel.obsmerge.worker_begin` and
:func:`~repro.parallel.obsmerge.worker_end`, shipping its metric
registry delta, telemetry events, wire messages, and bound checks back
with its results.  The parent merges the shipped deltas in chunk
start-index order — regardless of completion order — so histogram
sample sequences, wire transcripts, and float summation order match a
serial run exactly (the PR 2/PR 4 reconciliation invariants hold for
any worker count).

Failure protocol: an exception raised *by the trial function* aborts
the run immediately with a :class:`~repro.errors.ParallelError` naming
the trial index (the worker ships the traceback text).  A *crashed or
hung worker* (``BrokenProcessPool`` / timeout) triggers an isolation
pass: every not-yet-finished chunk re-runs one trial at a time on a
fresh single-worker pool, each trial retried once with the same spawned
seed; a trial that kills its process twice raises ``ParallelError``
naming it.  There is no code path that returns a silent partial table.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as _queue
import time
import traceback as _tb
from concurrent.futures import ProcessPoolExecutor, TimeoutError as _FutTimeout
from concurrent.futures.process import BrokenProcessPool
from itertools import count as _itercount
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ParallelError
from repro.obs import live as _live
from repro.parallel import shmipc
from repro.utils.rng import RngLike, spawn_seeds

#: Environment variable consulted when no explicit ``jobs`` is given.
JOBS_ENV = "REPRO_JOBS"

#: Process-wide default installed by :func:`set_default_jobs` (None =
#: fall through to the environment).
_DEFAULT_JOBS: Optional[int] = None

#: True inside a pool worker: nested ``run_trials`` calls stay serial
#: there (forking from a pool worker would oversubscribe and deadlock).
_IN_WORKER = False

#: Work-unit table, keyed by token.  Entries are installed *before* the
#: executor is created so forked workers inherit them — this is what
#: lets ``map`` accept closures and lambdas that pickle cannot ship.
_WORK: Dict[int, Tuple[Callable[[Any], Any], Sequence[Any]]] = {}
_TOKENS = _itercount()

#: Shared-memory result arena for the in-flight ``map`` call, installed
#: before the executor forks so workers inherit the open mapping.
_ARENA: Optional[shmipc.ResultArena] = None

#: Heartbeat queue for the in-flight ``map`` call, installed before the
#: executor forks (workers inherit it) and only when the parent has a
#: live bus (:mod:`repro.obs.live`) installed — no bus, no queue, no
#: cost.  Workers push ``heartbeat`` records; the parent drains them
#: onto the bus between result polls.
_HEARTBEAT_Q: Optional[Any] = None

#: Seconds per result-poll slice while heartbeats are flowing: the
#: parent wakes this often to drain beats and publish ``live.tick``.
_POLL_S = 0.1

#: Longest wait, once every chunk has returned, for ``end`` beats still
#: in a worker's queue feeder thread (a killed worker never sends one).
_END_BEAT_WAIT_S = 2.0


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method.

    The engine requires ``fork`` (work units travel by inheritance, not
    pickling); without it every pool degrades to the serial path.
    """
    return "fork" in mp.get_all_start_methods()


def set_default_jobs(jobs: Optional[int]) -> None:
    """Install a process-wide default worker count (None clears it).

    Sits between an explicit ``jobs=`` argument and the ``REPRO_JOBS``
    environment variable in the resolution chain; ``run_all --jobs N``
    calls this once so every sweep and game it triggers inherits N.
    """
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count for a pool.

    Resolution order: explicit argument → :func:`set_default_jobs` →
    ``REPRO_JOBS`` → 1 (serial).  A value ``<= 0`` means "all cores".
    Inside a pool worker the answer is always 1, whatever was asked —
    nested parallelism would oversubscribe the machine.
    """
    if _IN_WORKER:
        return 1
    if jobs is None:
        jobs = _DEFAULT_JOBS
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ParallelError(
                    f"{JOBS_ENV} must be an integer, got {raw!r}"
                ) from None
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def chunk_plan(
    n_items: int, jobs: int, chunk_factor: int = 4
) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` ranges covering ``range(n_items)``.

    Aims for ``jobs * chunk_factor`` chunks so slow trials are balanced
    by work stealing (idle workers pull the next chunk) while keeping
    per-chunk dispatch overhead amortised.  The plan depends only on
    ``(n_items, jobs, chunk_factor)`` — never on timing — and chunks
    are contiguous, which is what makes merge-by-start-index reproduce
    serial ordering.
    """
    if n_items < 0:
        raise ParallelError("n_items must be non-negative")
    if n_items == 0:
        return []
    target = max(1, min(n_items, jobs * max(1, chunk_factor)))
    size = -(-n_items // target)  # ceil division
    return [
        (start, min(start + size, n_items))
        for start in range(0, n_items, size)
    ]


def _run_chunk(token: int, start: int, stop: int, slot: int = -1) -> Dict[str, Any]:
    """Worker entry point: run trials ``[start, stop)`` of work ``token``.

    Runs in the forked child.  Returns a picklable payload —
    ``{"start", "results", "delta", "pid"}`` on success, with
    ``"failure"`` describing the first trial whose function raised
    (results stop there).  Worker crashes never return at all; the
    parent sees ``BrokenProcessPool`` instead.

    ``slot >= 0`` points at this chunk's slot in the fork-inherited
    shared-memory arena: uniformly numeric results are written there in
    place and only a descriptor travels back over the pickle pipe
    (``"shm"`` in the payload).  ``slot = -1`` — the isolation pass, or
    the transport disabled — always ships results by pickle.
    """
    global _IN_WORKER
    _IN_WORKER = True
    from repro.parallel import obsmerge

    fn, items = _WORK[token]
    handle = obsmerge.worker_begin()
    heartbeat = (
        obsmerge.HeartbeatSender(_HEARTBEAT_Q, chunk=start)
        if _HEARTBEAT_Q is not None
        else None
    )
    if heartbeat is not None:
        heartbeat.beat("begin", trial=start, done=0)
    results: List[Any] = []
    failure: Optional[Dict[str, Any]] = None
    for index in range(start, stop):
        try:
            results.append(fn(items[index]))
        except Exception as exc:
            failure = {
                "index": index,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": _tb.format_exc(),
            }
            break
        if heartbeat is not None:
            heartbeat.beat("progress", trial=index, done=len(results))
    if heartbeat is not None:
        heartbeat.beat("end", trial=stop - 1, done=len(results))
    shm_descriptor: Optional[Dict[str, Any]] = None
    if slot >= 0 and failure is None and _ARENA is not None:
        try:
            shm_descriptor = _ARENA.write(slot, results)
        except Exception:
            shm_descriptor = None  # any arena trouble -> pickle fallback
    if shm_descriptor is not None:
        shm_descriptor["slot"] = slot
        results = []
    return {
        "start": start,
        "results": results,
        "shm": shm_descriptor,
        "failure": failure,
        "delta": obsmerge.worker_end(handle),
        "pid": os.getpid(),
    }


class TrialPool:
    """Chunked fan-out of independent trials over forked workers.

    ``jobs`` resolves through :func:`resolve_jobs`; ``timeout`` (seconds
    per in-flight chunk, None = wait forever) guards against hung
    workers; ``chunk_factor`` tunes the work-stealing granularity of
    :func:`chunk_plan`.  A pool object is cheap — the executor lives
    only for the duration of each :meth:`map` call, so the work table
    installed just before forking is always current.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        chunk_factor: int = 4,
    ):
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self.chunk_factor = chunk_factor
        #: Transport statistics of the most recent parallel ``map``:
        #: chunks shipped via shared memory vs. the pickle pipe.  Plain
        #: attributes, not obs counters — serial and parallel telemetry
        #: must stay identical.
        self.last_transport_stats: Dict[str, int] = {
            "shm_chunks": 0,
            "pickle_chunks": 0,
        }
        #: Chunk starts whose ``end`` beat the in-flight ``map`` drained.
        self._ended: Set[int] = set()

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """``[fn(item) for item in items]``, fanned out when it pays.

        Falls back to the literal serial comprehension — same code a
        pre-parallel caller ran, exceptions propagating untouched —
        when the pool resolves to one worker, the platform lacks
        ``fork``, or there are fewer than two items.  The parallel path
        returns results in item order and merges worker telemetry in
        chunk start order; see the module docstring for the failure
        protocol.

        Numeric result tables travel back through a preallocated
        shared-memory arena (:mod:`repro.parallel.shmipc`) instead of
        the executor's pickle pipe; everything else falls back to
        pickle.  Either transport returns value-identical lists.
        """
        global _ARENA, _HEARTBEAT_Q
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1 or not fork_available():
            return [fn(item) for item in items]
        chunks = chunk_plan(len(items), self.jobs, self.chunk_factor)
        token = next(_TOKENS)
        _WORK[token] = (fn, items)
        arena: Optional[shmipc.ResultArena] = None
        if shmipc.shm_enabled():
            try:
                arena = shmipc.ResultArena(slots=len(chunks))
            except OSError:
                arena = None  # no /dev/shm room -> pickle transport
        _ARENA = arena
        # The heartbeat queue exists only while a live bus is installed
        # in this (parent) process; it must be created before the
        # executor forks so workers inherit it.
        hb_queue = None
        if _live.active() is not None:
            hb_queue = mp.get_context("fork").Queue()
        _HEARTBEAT_Q = hb_queue
        self._ended.clear()
        try:
            payloads = self._run_parallel(token, chunks)
            self._await_end_beats({payload["start"] for payload in payloads})
            from repro.parallel import obsmerge

            stats = {"shm_chunks": 0, "pickle_chunks": 0}
            results: List[Any] = []
            for payload in sorted(payloads, key=lambda p: p["start"]):
                obsmerge.merge_delta(
                    payload.get("delta"),
                    worker=payload.get("pid"),
                    chunk=payload["start"],
                )
                descriptor = payload.get("shm")
                if descriptor is not None and arena is not None:
                    stats["shm_chunks"] += 1
                    results.extend(arena.read(descriptor["slot"], descriptor))
                else:
                    stats["pickle_chunks"] += 1
                    results.extend(payload["results"])
            self.last_transport_stats = stats
            return results
        finally:
            self._drain_heartbeats()  # late beats (workers' "end")
            _HEARTBEAT_Q = None
            if hb_queue is not None:
                hb_queue.close()
                hb_queue.cancel_join_thread()
            del _WORK[token]
            _ARENA = None
            if arena is not None:
                arena.close()

    # -- the two passes -------------------------------------------------

    def _run_parallel(
        self, token: int, chunks: List[Tuple[int, int]]
    ) -> List[Dict[str, Any]]:
        payloads, pending = self._first_pass(token, chunks)
        if pending:
            payloads.extend(self._isolation_pass(token, pending))
        return payloads

    def _first_pass(
        self, token: int, chunks: List[Tuple[int, int]]
    ) -> Tuple[List[Dict[str, Any]], List[Tuple[int, int]]]:
        """Submit every chunk at once; work stealing balances the load.

        Returns ``(completed payloads, chunks needing the isolation
        pass)``.  A trial-function failure raises immediately; a crash
        or hang demotes every unfinished chunk to the isolation pass.
        Chunk ``i`` owns arena slot ``i``; isolation-pass re-runs ship
        by pickle (``slot = -1``), so a crashed chunk's half-written
        slot is never read.
        """
        ctx = mp.get_context("fork")
        executor = ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx)
        futures = {
            executor.submit(_run_chunk, token, start, stop, slot): (start, stop)
            for slot, (start, stop) in enumerate(chunks)
        }
        payloads: List[Dict[str, Any]] = []
        pending: List[Tuple[int, int]] = []
        broken = False
        try:
            for future, chunk in futures.items():
                if broken:
                    pending.append(chunk)
                    continue
                try:
                    payload = self._await(future)
                except BrokenProcessPool:
                    broken = True
                    pending.append(chunk)
                    continue
                except _FutTimeout:
                    self._kill_workers(executor)
                    broken = True
                    pending.append(chunk)
                    continue
                if payload["failure"] is not None:
                    self._raise_trial_failure(payload["failure"])
                payloads.append(payload)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return payloads, pending

    def _isolation_pass(
        self, token: int, chunks: List[Tuple[int, int]]
    ) -> List[Dict[str, Any]]:
        """Re-run unfinished chunks one trial at a time, retrying once.

        A fresh single-worker pool per attempt makes crash attribution
        unambiguous: exactly one trial is ever in flight, so a broken
        pool names its trial.  Each trial re-runs with the same spawned
        seed (the work table still holds it); a second crash raises
        :class:`ParallelError` carrying the trial index.
        """
        ctx = mp.get_context("fork")
        payloads: List[Dict[str, Any]] = []
        for start, stop in chunks:
            for index in range(start, stop):
                payloads.append(self._run_isolated(ctx, token, index))
        return payloads

    def _run_isolated(self, ctx, token: int, index: int) -> Dict[str, Any]:
        last_error = "worker process died"
        for _attempt in range(2):
            executor = ProcessPoolExecutor(max_workers=1, mp_context=ctx)
            try:
                future = executor.submit(_run_chunk, token, index, index + 1)
                try:
                    payload = self._await(future)
                except BrokenProcessPool:
                    last_error = "worker process died"
                    continue
                except _FutTimeout:
                    self._kill_workers(executor)
                    last_error = (
                        f"worker exceeded the {self.timeout}s timeout"
                    )
                    continue
                if payload["failure"] is not None:
                    self._raise_trial_failure(payload["failure"])
                return payload
            finally:
                executor.shutdown(wait=False, cancel_futures=True)
        raise ParallelError(
            f"trial {index} failed after a retry on a fresh worker "
            f"({last_error}); no partial results were returned",
            trial=index,
        )

    # -- heartbeat plumbing --------------------------------------------

    def _await(self, future) -> Dict[str, Any]:
        """``future.result`` with heartbeat draining while waiting.

        With no heartbeat queue installed this is exactly the old
        blocking call — identical behaviour, zero overhead.  With one,
        the wait is sliced into ``_POLL_S`` polls; each slice drains
        worker beats onto the live bus and publishes a ``live.tick``
        (which drives windowed SLO evaluation — a worker whose beats
        stop trips the stall rule *here*, while its future is still
        pending, before any timeout/retry path runs).  The caller's
        timeout semantics are preserved: :class:`_FutTimeout` is raised
        once ``self.timeout`` has elapsed in total.
        """
        if _HEARTBEAT_Q is None:
            return future.result(timeout=self.timeout)
        deadline = (
            None if self.timeout is None
            else time.monotonic() + self.timeout
        )
        while True:
            self._drain_heartbeats()
            try:
                return future.result(timeout=_POLL_S)
            except _FutTimeout:
                if deadline is not None and time.monotonic() >= deadline:
                    raise

    def _drain_heartbeats(self) -> None:
        """Move queued worker beats onto the live bus, then tick it."""
        hb_queue = _HEARTBEAT_Q
        if hb_queue is None:
            return
        while True:
            try:
                record = hb_queue.get_nowait()
            except (_queue.Empty, OSError, ValueError):
                break
            self._publish_beat(record)
        _live.tick()

    def _publish_beat(self, record: Dict[str, Any]) -> None:
        if record.get("phase") == "end":
            self._ended.add(record["chunk"])
        _live.publish(record)

    def _await_end_beats(self, starts: Set[int]) -> None:
        """Publish beats until each chunk in ``starts`` has sent ``end``.

        A worker puts its ``end`` beat before returning its chunk, but
        the beat reaches the pipe through the worker's queue feeder
        thread, so the result can arrive first.  The wait is bounded by
        :data:`_END_BEAT_WAIT_S` for a worker killed in between.
        """
        hb_queue = _HEARTBEAT_Q
        if hb_queue is None:
            return
        deadline = time.monotonic() + _END_BEAT_WAIT_S
        while not starts <= self._ended:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                record = hb_queue.get(timeout=remaining)
            except (_queue.Empty, OSError, ValueError):
                break
            self._publish_beat(record)

    # -- failure plumbing ----------------------------------------------

    @staticmethod
    def _raise_trial_failure(failure: Dict[str, Any]) -> None:
        raise ParallelError(
            f"trial {failure['index']} raised {failure['error']}\n"
            f"{failure['traceback']}",
            trial=failure["index"],
        )

    @staticmethod
    def _kill_workers(executor: ProcessPoolExecutor) -> None:
        """Terminate a hung pool's processes (forces ``BrokenProcessPool``).

        Reaches into executor internals — there is no public kill switch
        on :class:`ProcessPoolExecutor` — guarded so a future stdlib
        that renames the attribute degrades to waiting, not crashing.
        """
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()


def run_trials(
    fn: Callable[[np.random.Generator], Any],
    n_trials: int,
    rng: RngLike,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    chunk_factor: int = 4,
) -> List[Any]:
    """Run ``fn`` once per trial with split randomness, optionally parallel.

    The deterministic heart of the engine: one seed per trial is drawn
    from ``rng`` up front via :func:`~repro.utils.rng.spawn_seeds` —
    advancing ``rng`` exactly as the serial ``spawn_rngs`` loop always
    did — and trial ``i`` runs ``fn(np.random.default_rng(seeds[i]))``
    wherever the scheduler places it.  Results come back in trial
    order, so for any ``jobs`` the return value is bit-identical to::

        [fn(g) for g in spawn_rngs(rng, n_trials)]

    ``fn`` and its results must be picklable-or-fork-inheritable for the
    parallel path (any callable works — closures and lambdas travel by
    fork inheritance; results must pickle).  Trial failures follow the
    :class:`TrialPool` protocol.
    """
    seeds = spawn_seeds(rng, n_trials)
    pool = TrialPool(jobs=jobs, timeout=timeout, chunk_factor=chunk_factor)
    return pool.map(lambda seed: fn(np.random.default_rng(seed)), seeds)
