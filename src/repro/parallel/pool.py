"""Forked trial execution with deterministic results and telemetry.

The repository's experiments are embarrassingly parallel at the *trial*
level — lower-bound game rounds, sweep configurations, benchmark
repetitions — but every hot loop ran serially before this module.  The
engine here fans trials out over forked
:class:`multiprocessing.Process` workers while keeping two promises the
rest of the repo depends on:

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

Process model: a :meth:`TrialPool.map` runs on ``min(jobs, chunks)``
forked workers, each with its own pipe.  The parent waits on every busy
worker's pipe at once (:func:`multiprocessing.connection.wait`), and
hands the worker that sent back a chunk's payload the next chunk, in
chunk order.  Workers outlive their map: at its end they rest, and a
worker that rests for ``_IDLE_S`` seconds without new work tells the
parent and exits, so :func:`multiprocessing.active_children` reaps it
and its CPU time reaches ``RUSAGE_CHILDREN``.  Until then the next map
hires it again.  Each map pickles its ``(fn, items)`` once and sends it
to the workers it hires; a function no module attribute names (a
closure, a lambda) travels by value, its code and cell contents, and
takes its globals from the worker's own copy of its module.  A resident
worker therefore sees module globals as they were when it forked, and
it is retired when the parent state it relies on changes (the kernel
backend selection, whether wire captures or bound monitors are
installed, the binding of :func:`_run_chunk`).  A map whose work does
not pickle, or that runs with telemetry on, a live bus or a memory
profiler installed, forks fresh workers after its work table and
heartbeat queue are installed, so they inherit both; they are joined
before ``map`` returns or raises.  :func:`release_workers` retires the
resident workers at once.

Failure protocol: an exception raised *by the trial function*, or a
trial result that cannot be pickled, aborts the run with a
:class:`~repro.errors.ParallelError` naming the trial index (the worker
ships the traceback text); with several such trials in flight, the
first in trial order is named.  A *crashed or hung worker* (its pipe
closes, or a chunk outlives ``timeout``) triggers an isolation pass:
every not-yet-finished chunk re-runs one trial at a time on a fresh
worker, each trial retried once with the same spawned seed; a trial
that kills its process twice raises ``ParallelError`` naming it.  Every
worker a failed map hired is joined before it raises.  There is no code
path that returns a silent partial table.
"""

from __future__ import annotations

import io
import marshal
import math
import multiprocessing as mp
import os
import pickle
import queue as _queue
import sys
import time
import traceback as _tb
import types
import weakref
from bisect import insort
from itertools import count as _itercount
from multiprocessing.connection import wait as _wait_ready
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParallelError
from repro.obs import live as _live
from repro.utils.rng import RngLike, spawn_seeds

#: Environment variable consulted when no explicit ``jobs`` is given.
JOBS_ENV = "REPRO_JOBS"

#: Process-wide default installed by :func:`set_default_jobs` (None =
#: fall through to the environment).
_DEFAULT_JOBS: Optional[int] = None

#: True inside a pool worker: nested ``run_trials`` calls stay serial
#: there (forking from a pool worker would oversubscribe and deadlock).
_IN_WORKER = False

#: Work-unit table, keyed by token.  The parent installs each map's
#: work before it forks any worker for it, so fresh workers inherit it;
#: a resident worker holds only the work it was last sent.
_WORK: Dict[int, Tuple[Callable[[Any], Any], Sequence[Any]]] = {}
_TOKENS = _itercount()

#: Every live worker of this process, held weakly: the strong reference
#: is ``multiprocessing``'s own child list, so once it reaps a worker
#: that exited, the worker and the parent's end of its pipe are freed.
_WORKERS: "weakref.WeakSet[_Worker]" = weakref.WeakSet()

#: Seconds a resting worker waits for its next map before it exits.
#: The maps of a ``games`` pass follow each other within a few
#: milliseconds; a gap this long means the caller went on to other work.
_IDLE_S = 0.02

#: Worker -> parent: the worker rested ``_IDLE_S`` and is exiting, so
#: the chunk the parent may have sent meanwhile is still to be run.
_IDLE = "idle"

#: Parent -> worker: the map is over; rest until the next one.
_REST = "rest"

#: Heartbeat queue for the in-flight ``map`` call, installed before the
#: workers fork (they inherit it) and only when the parent has a
#: live bus (:mod:`repro.obs.live`) installed — no bus, no queue, no
#: cost.  Workers push ``heartbeat`` records; the parent drains them
#: onto the bus between result polls.
_HEARTBEAT_Q: Optional[Any] = None

#: Seconds per result-poll slice while heartbeats are flowing: the
#: parent wakes this often to drain beats and publish ``live.tick``.
_POLL_S = 0.1

#: Longest wait for workers to exit once told to (or terminated); one
#: still running after it is killed.  An exiting worker first flushes
#: the beats still in its queue feeder thread.
_EXIT_WAIT_S = 2.0


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method.

    The engine requires ``fork`` (workers are forks of the parent);
    without it every pool degrades to the serial path.
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
    parent sees the worker's pipe close instead.  ``slot`` is the
    chunk's position in its map's plan (-1 on the isolation pass); the
    worker passes it on so a wrapper of this function can read it.
    """
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
                "error": f"raised {type(exc).__name__}: {exc}",
                "traceback": _tb.format_exc(),
            }
            break
        if heartbeat is not None:
            heartbeat.beat("progress", trial=index, done=len(results))
    if heartbeat is not None:
        heartbeat.beat("end", trial=stop - 1, done=len(results))
    return {
        "start": start,
        "results": results,
        "failure": failure,
        "delta": obsmerge.worker_end(handle),
        "pid": os.getpid(),
    }


def _serve(token: int, conn) -> None:
    """Worker process body: run each chunk the parent sends, reply with
    its payload.

    A task ``(start, stop, slot)`` runs through :func:`_run_chunk`, by
    this module's global (so a wrapper installed before the fork runs
    too).  ``(token, data)`` replaces the work with the unpickled
    ``data``.  :data:`_REST` ends a map: a worker that then hears
    nothing for ``_IDLE_S`` seconds sends :data:`_IDLE` and exits.
    ``None`` ends the loop at once; the process then exits through
    ``multiprocessing``'s bootstrap, which runs its finalizers.
    """
    global _IN_WORKER
    _IN_WORKER = True
    resting = False
    while True:
        if resting and not conn.poll(_IDLE_S):
            conn.send(_IDLE)
            return
        try:
            task = conn.recv()
        except EOFError:  # the parent is gone
            return
        if task is None:
            return
        resting = task == _REST
        if resting:
            continue
        if len(task) == 2:
            token, data = task
            _WORK.clear()
            _WORK[token] = pickle.loads(data)
            continue
        start, stop, slot = task
        payload = _run_chunk(token, start, stop, slot)
        try:
            data = ForkingPickler.dumps(payload)
        except Exception as exc:  # a result that cannot be pickled
            data = ForkingPickler.dumps(_unpicklable(payload, exc))
        conn.send_bytes(data)


def _unpicklable(payload: Dict[str, Any], error: Exception) -> Dict[str, Any]:
    """``payload`` without its results, failing at the first trial whose
    result does not pickle (the chunk's first trial when each result
    pickles on its own and ``error`` came from the rest)."""
    index = payload["start"]
    for offset, result in enumerate(payload["results"]):
        try:
            ForkingPickler.dumps(result)
        except Exception as exc:
            index, error = index + offset, exc
            break
    failure = {
        "index": index,
        "error": (
            "returned a result that cannot be pickled: "
            f"{type(error).__name__}: {error}"
        ),
        "traceback": "".join(
            _tb.format_exception(type(error), error, error.__traceback__)
        ),
    }
    return dict(payload, results=[], delta=None, failure=failure)


# -- shipping work to resident workers ----------------------------------


def _named(fn: types.FunctionType) -> bool:
    """Whether ``fn`` is its module's attribute of its qualified name,
    so pickle can send it by reference."""
    obj: Any = sys.modules.get(fn.__module__)
    for name in fn.__qualname__.split("."):
        obj = getattr(obj, name, None)
    return obj is fn


def _make_function(code, module, name, qualname, defaults, kwdefaults, cells, attrs):
    """Rebuild a function :class:`_WorkPickler` sent by value, over the
    globals of this process's copy of its module."""
    fn = types.FunctionType(
        marshal.loads(code),
        vars(sys.modules[module]),
        name,
        defaults,
        tuple(types.CellType(value) for value in cells),
    )
    fn.__qualname__ = qualname
    fn.__kwdefaults__ = kwdefaults
    fn.__dict__.update(attrs)
    return fn


class _WorkPickler(pickle.Pickler):
    """Pickles a function that no module attribute names by value: its
    code, defaults and cell contents, but not its globals."""

    def reducer_override(self, obj):
        if type(obj) is not types.FunctionType or _named(obj):
            return NotImplemented
        module = sys.modules.get(obj.__module__)
        if module is None or vars(module) is not obj.__globals__:
            raise pickle.PicklingError(
                f"{obj.__qualname__} does not run over its module's globals"
            )
        cells = tuple(cell.cell_contents for cell in obj.__closure__ or ())
        return _make_function, (
            marshal.dumps(obj.__code__), obj.__module__, obj.__name__,
            obj.__qualname__, obj.__defaults__, obj.__kwdefaults__, cells,
            obj.__dict__,
        )


def _fork_state() -> Optional[Tuple[Any, ...]]:
    """The parent state a resident worker must share, or None when a map
    must fork fresh workers (telemetry on, a live bus or a memory
    profiler installed: each needs objects only a fork can hand over)."""
    from repro.kernels import registry
    from repro.obs import bounds, capture, core, memory

    if core.STATE.enabled or _live.active() is not None or memory.active() is not None:
        return None
    try:
        kernels = registry.selection_order()
    except registry.KernelUnavailableError:
        return None
    return kernels, capture.active() is not None, bounds.active(), _run_chunk


def _shipment(token: int) -> Optional[Tuple[Tuple[Any, ...], bytes]]:
    """``(fork state, pickled work)`` of map ``token`` for resident
    workers, or None when it must fork fresh workers."""
    state = _fork_state()
    if state is None:
        return None
    buffer = io.BytesIO()
    try:
        _WorkPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(_WORK[token])
    except Exception:  # any object that does not pickle: fork instead
        return None
    return state, buffer.getvalue()


# -- workers -----------------------------------------------------------

#: Workers fork; without ``fork`` the pool never builds one.
_ForkProcess = getattr(mp.context, "ForkProcess", mp.Process)


class _Worker(_ForkProcess):
    """One forked worker process and the parent's end of its pipe.

    ``state`` is the :func:`_fork_state` a resident worker was forked
    under; None for a worker that lives for one map (or one isolated
    trial) only.
    """

    def __init__(self, ctx, token: int, state: Optional[Tuple[Any, ...]] = None):
        self.conn, child_conn = ctx.Pipe()
        super().__init__(target=_serve, args=(token, child_conn))
        self.state = state
        #: The work the worker holds: it inherits the map it forks for.
        self.token = token
        #: The chunk in flight, ``(start, stop, slot)``, or None when idle.
        self.task: Optional[Tuple[int, int, int]] = None
        self.deadline = math.inf
        # Listed before the fork, so the child closes its copy of the
        # parent's end (see _forget_workers).
        _WORKERS.add(self)
        try:
            self.start()
        except BaseException:
            _WORKERS.discard(self)
            raise
        finally:
            # The worker now holds the only copy of its end, so the
            # parent reads EOF on its own end once the worker dies.
            child_conn.close()

    def load(self, token: int, data: bytes) -> None:
        """Send the worker map ``token``'s work unless it holds it."""
        if self.token != token:
            self.token = token
            self._put((token, data))

    def send(self, task: Tuple[int, int, int], timeout: Optional[float]) -> None:
        """Hand the worker ``task``; it must answer within ``timeout`` s.

        A worker that is gone answers with EOF, or with :data:`_IDLE`
        when it left at rest; :meth:`receive` reads which.
        """
        self._put(task)
        self.task = task
        self.deadline = (
            math.inf if timeout is None else time.monotonic() + timeout
        )

    def receive(self) -> Any:
        """The in-flight chunk's payload, :data:`_IDLE` if the worker
        left at rest before it took the chunk, or None if it died."""
        self.task = None
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def _put(self, message: Any) -> None:
        try:
            self.conn.send(message)
        except OSError:
            pass  # the worker is gone; its pipe tells receive() how


def _hire(ctx, token: int, shipment, taken: List[_Worker]) -> _Worker:
    """A worker for map ``token`` outside ``taken``: without a
    ``shipment``, a fresh fork for this map; with one, a resident worker
    forked under the same state (others are retired) or a new one."""
    if shipment is None:
        return _Worker(ctx, token)
    state, data = shipment
    for worker in list(_WORKERS):
        if worker.state is None or worker in taken:
            continue
        if worker.state == state:
            worker.load(token, data)
            return worker
        _stop([worker])
    return _Worker(ctx, token, state)


def _stop(workers: List[_Worker]) -> None:
    """Tell idle workers to exit, terminate busy ones, join them all.

    Beats are drained while waiting: a worker's exit flushes its
    heartbeat queue, which blocks while the queue's pipe is full.
    """
    for worker in workers:
        _WORKERS.discard(worker)
        if worker.task is None:
            worker._put(None)
        else:
            worker.terminate()
    deadline = time.monotonic() + _EXIT_WAIT_S
    running = list(workers)
    while running:
        _drain_heartbeats()
        wait_s = deadline - time.monotonic()
        if wait_s <= 0:
            for worker in running:
                worker.kill()
            break
        _wait_ready([worker.sentinel for worker in running], min(wait_s, _POLL_S))
        running = [worker for worker in running if worker.exitcode is None]
    for worker in workers:
        worker.join()
        worker.close()
        worker.conn.close()


def release_workers() -> None:
    """Retire every resident worker now: each exits and is joined.

    Without a call, a resident worker exits by itself once it has
    rested ``_IDLE_S`` seconds.
    """
    _stop(list(_WORKERS))


def _forget_workers() -> None:
    """In a forked child: close the parent's ends of its workers' pipes
    (so each worker reads EOF once the parent is gone) and forget them."""
    for worker in list(_WORKERS):
        worker.conn.close()
    _WORKERS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _drain_heartbeats() -> None:
    """Move queued worker beats onto the live bus, then tick it."""
    hb_queue = _HEARTBEAT_Q
    if hb_queue is None:
        return
    while True:
        try:
            record = hb_queue.get_nowait()
        except (_queue.Empty, OSError, ValueError):
            break
        _live.publish(record)
    _live.tick()


class TrialPool:
    """Chunked fan-out of independent trials over forked workers.

    ``jobs`` resolves through :func:`resolve_jobs`; ``timeout`` (seconds
    per in-flight chunk, None = wait forever) guards against hung
    workers; ``chunk_factor`` tunes the work-stealing granularity of
    :func:`chunk_plan`.  A pool object is cheap: the workers belong to
    the module, and every pool's maps hire from them.
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

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """``[fn(item) for item in items]``, fanned out when it pays.

        Falls back to the literal serial comprehension — same code a
        pre-parallel caller ran, exceptions propagating untouched —
        when the pool resolves to one worker, the platform lacks
        ``fork``, or there are fewer than two items.  The parallel path
        returns results in item order and merges worker telemetry in
        chunk start order; see the module docstring for the process
        model and the failure protocol.
        """
        global _HEARTBEAT_Q
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1 or not fork_available():
            return [fn(item) for item in items]
        chunks = chunk_plan(len(items), self.jobs, self.chunk_factor)
        token = next(_TOKENS)
        _WORK[token] = (fn, items)
        # The heartbeat queue exists only while a live bus is installed
        # in this (parent) process; it must be created before the
        # workers fork so they inherit it.
        hb_queue = None
        if _live.active() is not None:
            hb_queue = mp.get_context("fork").Queue()
        _HEARTBEAT_Q = hb_queue
        try:
            payloads = self._run_parallel(token, chunks)
            from repro.parallel import obsmerge

            results: List[Any] = []
            for payload in sorted(payloads, key=lambda p: p["start"]):
                obsmerge.merge_delta(
                    payload.get("delta"),
                    worker=payload.get("pid"),
                    chunk=payload["start"],
                )
                results.extend(payload["results"])
            return results
        finally:
            # With a bus, every worker was forked for this map and has
            # been joined, so the beats it sent ("end" beats included)
            # are all in the queue.
            _drain_heartbeats()
            _HEARTBEAT_Q = None
            if hb_queue is not None:
                hb_queue.close()
                hb_queue.cancel_join_thread()
            del _WORK[token]

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
        """Run the chunks on up to ``jobs`` workers; each worker that
        answers takes the next chunk (work stealing).

        Returns ``(completed payloads, chunks needing the isolation
        pass)``.  A trial-function failure raises once every earlier
        chunk has answered, naming the first failing trial; a crash or
        hang demotes every unfinished chunk to the isolation pass.  A
        resident worker that left at rest before it took its chunk is
        replaced, and the chunk goes back to the queue.  After a clean
        pass resident workers rest; on any other outcome every worker
        is joined.
        """
        ctx = mp.get_context("fork")
        shipment = _shipment(token)
        todo = [(start, stop, slot) for slot, (start, stop) in enumerate(chunks)]
        done: Dict[int, Dict[str, Any]] = {}
        failures: List[Dict[str, Any]] = []
        broken = clean = False
        workers: List[_Worker] = []
        try:
            while True:
                first_failure = min(
                    (failure["index"] for failure in failures), default=math.inf
                )
                while todo and todo[0][0] < first_failure:
                    worker = next((w for w in workers if w.task is None), None)
                    if worker is None:
                        if len(workers) >= self.jobs:
                            break
                        worker = _hire(ctx, token, shipment, workers)
                        workers.append(worker)
                    worker.send(todo.pop(0), self.timeout)
                busy = [
                    worker for worker in workers
                    if worker.task is not None and worker.task[0] < first_failure
                ]
                if not busy:
                    break
                ready = self._wait(busy)
                if not ready:  # a chunk outlived the timeout
                    broken = True
                    break
                for worker in ready:
                    task = worker.task
                    payload = worker.receive()
                    if payload == _IDLE:
                        insort(todo, task)
                        workers.remove(worker)
                        _stop([worker])
                    elif payload is None:
                        broken = True
                    elif payload["failure"] is not None:
                        failures.append(payload["failure"])
                    else:
                        done[task[2]] = payload
                if broken:
                    break
            clean = not (broken or failures)
        finally:
            if clean and shipment is not None:
                for worker in workers:
                    worker._put(_REST)
            else:
                _stop(workers)
        if failures and not broken:
            self._raise_trial_failure(min(failures, key=lambda f: f["index"]))
        pending = [chunk for slot, chunk in enumerate(chunks) if slot not in done]
        return [done[slot] for slot in sorted(done)], pending

    def _isolation_pass(
        self, token: int, chunks: List[Tuple[int, int]]
    ) -> List[Dict[str, Any]]:
        """Re-run unfinished chunks one trial at a time, retrying once.

        A fresh worker per attempt makes crash attribution unambiguous:
        exactly one trial is ever in flight, so a dead worker names its
        trial.  Each trial re-runs with the same spawned seed (the work
        table still holds it); a second crash raises
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
            worker = _Worker(ctx, token)
            try:
                worker.send((index, index + 1, -1), self.timeout)
                if not self._wait([worker]):
                    last_error = f"worker exceeded the {self.timeout}s timeout"
                    continue
                payload = worker.receive()
                if payload is None:
                    last_error = "worker process died"
                    continue
                if payload["failure"] is not None:
                    self._raise_trial_failure(payload["failure"])
                return payload
            finally:
                _stop([worker])
        raise ParallelError(
            f"trial {index} failed after a retry on a fresh worker "
            f"({last_error}); no partial results were returned",
            trial=index,
        )

    # -- worker plumbing -----------------------------------------------

    def _wait(self, busy: List[_Worker]) -> List[_Worker]:
        """The busy workers whose pipe has a payload to read (or closed).

        Blocks until there is one, or returns ``[]`` once some chunk has
        been in flight for ``timeout`` seconds.  With no heartbeat queue
        installed this is one blocking wait.  With one, the wait is
        sliced into ``_POLL_S`` polls; each slice drains worker beats
        onto the live bus and publishes a ``live.tick`` (which drives
        windowed SLO evaluation — a worker whose beats stop trips the
        stall rule *here*, while its chunk is still pending, before any
        timeout/retry path runs).
        """
        by_conn = {worker.conn: worker for worker in busy}
        deadline = min(worker.deadline for worker in busy)
        while True:
            _drain_heartbeats()
            wait_s = max(0.0, deadline - time.monotonic())
            if _HEARTBEAT_Q is not None:
                wait_s = min(wait_s, _POLL_S)
            ready = _wait_ready(list(by_conn), None if wait_s == math.inf else wait_s)
            if ready:
                return [by_conn[conn] for conn in ready]
            if time.monotonic() >= deadline:
                return []

    # -- failure plumbing ----------------------------------------------

    @staticmethod
    def _raise_trial_failure(failure: Dict[str, Any]) -> None:
        raise ParallelError(
            f"trial {failure['index']} {failure['error']}\n"
            f"{failure['traceback']}",
            trial=failure["index"],
        )


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

    Any callable works for the parallel path: a closure or lambda is
    pickled by value (its cells included) for resident workers, or
    inherited by fresh forks when something it holds does not pickle.
    Results must pickle.  Trial failures follow the :class:`TrialPool`
    protocol.
    """
    seeds = spawn_seeds(rng, n_trials)
    pool = TrialPool(jobs=jobs, timeout=timeout, chunk_factor=chunk_factor)
    return pool.map(lambda seed: fn(np.random.default_rng(seed)), seeds)
