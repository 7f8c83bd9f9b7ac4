"""Per-layer tracing installed from the benchmark's own files.

Nothing under ``src/`` changes.  :func:`install_layers` wraps each
layer's public entry points where their callers look them up: a
module-level function is replaced in every ``repro`` module that holds
it (``stoer_wagner`` lives in ``graphs.mincut`` and is imported by name
into ``distributed.coordinator``, ``serving.server``,
``sketch.sparsifier`` and ``localquery``), a method is replaced on its
class, and kernels are wrapped on the backend that ``get_backend()``
hands out.  Each wrapper charges its duration minus the duration of
wrapped callees to its layer, so the layers' self times plus the
unattributed rest add up to the traced total.

:class:`PoolAccounting` is the one hook that also runs untraced: it
records, per pool chunk, the worker's busy time and peak RSS (and, when
tracing, the worker's layer times) and ships them back inside the
chunk's payload, because forked workers are separate processes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import resource
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Layers timed by wrapped entry points (``<name>.calls``, ``<name>.self_s``).
TIMED_LAYERS = (
    "foreach_lb.encode",
    "foreach_lb.decode",
    "forall_lb.encode",
    "forall_lb.decode",
    "comm",
    "linalg.hadamard",
    "sketch.build",
    "sketch.query",
    "graphs.csr.membership",
    "graphs.csr.cut",
    "graphs.maxflow",
    "graphs.mincut.stoer_wagner",
    "graphs.mincut.contraction",
    "graphs.mincut.directed",
    "kernels.dinic",
    "kernels.hadamard",
    "kernels.contract",
    "localquery.verify_guess",
    "distributed.rescore",
    "parallel.map",
    "serving.protocol.decode",
    "serving.protocol.encode",
    "serving.cache.put",
    "serving.loop.idle",
    "obs",
)

#: Work counts that repeat exactly for a fixed seed in the batch workloads.
EXACT_COUNTS = (
    "sketch.bits",
    "graphs.csr.cut.rows",
    "kernels.dinic.phases",
    "localquery.queries",
    "localquery.bits",
    "distributed.bits",
)

#: Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER = tuple(
    row
    for layer in TIMED_LAYERS
    for row in ((f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower"))
) + (
    ("sketch.bits", "bit", "lower"),
    ("graphs.csr.cut.rows", "count", "lower"),
    ("kernels.dinic.phases", "count", "lower"),
    ("localquery.queries", "count", "lower"),
    ("localquery.bits", "bit", "lower"),
    ("distributed.bits", "bit", "lower"),
    ("distributed.candidates_per_attempt", "ratio", "higher"),
    ("parallel.worker_busy_s", "s", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("parallel.dispatch_s", "s", "lower"),
    ("parallel.retries", "count", "lower"),
    ("serving.batcher.flushes", "count", "lower"),
    ("serving.batcher.width", "row/flush", "higher"),
    ("serving.batcher.queue_wait_s", "s", "lower"),
    ("serving.cache.hit_rate", "ratio", "higher"),
    ("serving.cache.evictions", "count", "lower"),
    ("obs.rss_growth_kb_per_kop", "KiB/kop", "lower"),
    ("loadgen.cpu_ms_per_op", "ms", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("host.steal_frac", "fraction", "lower"),
    ("unattributed.self_s", "s", "lower"),
    ("bench.traced_total_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "higher"),
)

_FUNCTIONS = (
    ("repro.comm.gap_hamming", "sample_gap_hamming_instance", "comm"),
    ("repro.comm.twosum", "sample_twosum_instance", "comm"),
    ("repro.graphs.maxflow", "max_flow", "graphs.maxflow"),
    ("repro.graphs.mincut", "stoer_wagner", "graphs.mincut.stoer_wagner"),
    ("repro.graphs.mincut", "sample_near_min_cuts", "graphs.mincut.contraction"),
    ("repro.graphs.mincut", "directed_global_min_cut", "graphs.mincut.directed"),
    ("repro.localquery.verify_guess", "verify_guess", "localquery.verify_guess"),
    ("repro.serving.protocol", "_decode_header", "serving.protocol.decode"),
    ("repro.serving.protocol", "_finish_decode", "serving.protocol.decode"),
    ("repro.serving.protocol", "mask_to_row", "serving.protocol.decode"),
    ("repro.serving.protocol", "encode_frame", "serving.protocol.encode"),
    ("repro.serving.protocol", "capture_envelope", "obs"),
    ("repro.obs.metrics", "count", "obs"),
    ("repro.obs.metrics", "observe", "obs"),
    ("repro.obs.metrics", "set_gauge", "obs"),
    ("repro.obs.sink", "emit", "obs"),
    ("repro.obs.live", "publish", "obs"),
    ("repro.obs.capture", "record", "obs"),
    ("repro.obs.trace", "span", "obs"),
)

_METHODS = (
    ("repro.foreach_lb.encoder", "ForEachEncoder", ("encode",), "foreach_lb.encode"),
    ("repro.foreach_lb.decoder", "ForEachDecoder", ("decode_bit", "decode_all"), "foreach_lb.decode"),
    ("repro.forall_lb.encoder", "ForAllEncoder", ("encode",), "forall_lb.encode"),
    ("repro.forall_lb.decoder", "ForAllDecoder", ("decide",), "forall_lb.decode"),
    (
        "repro.linalg.hadamard",
        "Lemma32Matrix",
        ("combine", "combine_many", "decode_coefficient", "decode_coefficients"),
        "linalg.hadamard",
    ),
    ("repro.graphs.csr", "CSRGraph", ("membership_matrix",), "graphs.csr.membership"),
    ("repro.graphs.csr", "CSRGraph", ("cut_weights", "cut_weights_stable", "cut_weight"), "graphs.csr.cut"),
    ("repro.distributed.server", "Server", ("cut_value_response",), "distributed.rescore"),
    ("repro.serving.cache", "SnapshotCache", ("put",), "serving.cache.put"),
)

_KERNELS = (
    ("dinic_solve", "kernels.dinic"),
    ("had_combine_many", "kernels.hadamard"),
    ("had_row_products", "kernels.hadamard"),
    ("had_decode_one", "kernels.hadamard"),
    ("contract_to", "kernels.contract"),
)


class Tracer:
    """Calls, self time and counts per layer, for one process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []

    def timed(self, layer: str, fn: Callable) -> Callable:
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    def counted(self, fn: Callable, on_result: Callable[[Any, tuple, dict], None]) -> Callable:
        """Untimed wrapper that feeds each result to ``on_result``."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result, args, kwargs)
            return result

        return counting

    def reset(self) -> None:
        """Forget everything, in place (wrappers hold these containers)."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        del self._stack[:]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def absorb(self, snap: Dict[str, Dict[str, float]]) -> None:
        for name, value in snap["calls"].items():
            self.calls[name] += value
        for name, value in snap["self_s"].items():
            self.self_s[name] += value
        for name, value in snap["counts"].items():
            self.counts[name] += value


def snapshot_delta(after: Dict, before: Dict) -> Dict[str, Dict[str, float]]:
    return {
        part: {k: v - before[part].get(k, 0) for k, v in after[part].items()}
        for part in ("calls", "self_s", "counts")
    }


def replace_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind ``original`` to ``replacement`` in every loaded repro module."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def _rows(membership) -> int:
    shape = getattr(membership, "shape", None)
    if shape is None:
        return len(membership)
    return 1 if len(shape) == 1 else int(shape[0])


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer's entry points.

    Modules imported later pick up the wrapped names from the modules
    patched here, so only the importers loaded now need rebinding.
    """
    for module_name in ("repro.foreach_lb", "repro.forall_lb", "repro.localquery",
                        "repro.distributed", "repro.sketch", "repro.serving.server"):
        importlib.import_module(module_name)

    for module_name, attr, layer in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        replace_everywhere(original, tracer.timed(layer, original))

    for module_name, class_name, attrs, layer in _METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for attr in attrs:
            setattr(cls, attr, tracer.timed(layer, cls.__dict__[attr]))

    counts = tracer.counts
    csr_cls = importlib.import_module("repro.graphs.csr").CSRGraph
    for attr in ("cut_weights", "cut_weights_stable"):
        def add_rows(_result, args, _kwargs):
            counts["graphs.csr.cut.rows"] += _rows(args[1])

        setattr(csr_cls, attr, tracer.counted(csr_cls.__dict__[attr], add_rows))

    from repro.sketch.base import CutSketch

    def add_bits(result, _args, _kwargs):
        counts["sketch.bits"] += result

    pending = list(CutSketch.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr, layer in (("__init__", "sketch.build"), ("query", "sketch.query"), ("query_many", "sketch.query")):
            if attr in cls.__dict__:
                setattr(cls, attr, tracer.timed(layer, cls.__dict__[attr]))
        if "size_bits" in cls.__dict__:
            setattr(cls, "size_bits", tracer.counted(cls.__dict__["size_bits"], add_bits))

    def add_queries(result, _args, _kwargs):
        counts["localquery.queries"] += result.total_queries

    def add_comm_bits(result, _args, _kwargs):
        counts["localquery.bits"] += result.bits_exchanged

    def add_distributed(result, _args, kwargs):
        counts["distributed.bits"] += result.total_bits
        if result.strategy == "hybrid":
            counts["distributed.candidates"] += result.candidates_scored
            counts["distributed.attempts"] += kwargs.get("contraction_attempts", 200)

    mincut_query = importlib.import_module("repro.localquery.mincut_query")
    reduction = importlib.import_module("repro.localquery.reduction")
    coordinator = importlib.import_module("repro.distributed.coordinator")
    for original, on_result in (
        (mincut_query.estimate_min_cut, add_queries),
        (reduction.solve_twosum_via_mincut, add_comm_bits),
        (coordinator.distributed_min_cut, add_distributed),
    ):
        replace_everywhere(original, tracer.counted(original, on_result))

    _install_kernels(tracer)


def _install_kernels(tracer: Tracer) -> None:
    registry = importlib.import_module("repro.kernels.registry")
    original = registry.get_backend
    traced_backends: Dict[int, Any] = {}

    def add_phases(result, _args, _kwargs):
        tracer.counts["kernels.dinic.phases"] += result[1]

    def traced_get_backend():
        backend = original()
        entry = traced_backends.get(id(backend))
        if entry is None:
            slots = {
                slot: tracer.timed(layer, getattr(backend, slot))
                for slot, layer in _KERNELS
            }
            slots["dinic_solve"] = tracer.counted(slots["dinic_solve"], add_phases)
            entry = (backend, dataclasses.replace(backend, **slots))
            traced_backends[id(backend)] = entry
        return entry[1]

    replace_everywhere(original, functools.wraps(original)(traced_get_backend))


# ----------------------------------------------------------------------
# pool accounting (forked workers ship their numbers back per chunk)
# ----------------------------------------------------------------------

_PAYLOAD_KEY = "perfbench"


class PoolAccounting:
    """Worker busy time, peak RSS and (traced) layer times per pool chunk."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.chunks: List[Dict[str, Any]] = []
        #: Per parallel map: (wall_s, jobs, busiest worker's busy_s).
        self.maps: List[tuple] = []
        self.retries = 0

    def install(self) -> None:
        from repro.parallel import pool as pool_mod

        run_chunk = pool_mod._run_chunk

        @functools.wraps(run_chunk)
        def accounted_chunk(token, start, stop, slot=-1):
            tracer = self.tracer
            if tracer is not None:
                tracer.reset()  # drop the parent's state inherited at fork
            began = time.perf_counter()
            payload = run_chunk(token, start, stop, slot)
            payload[_PAYLOAD_KEY] = {
                "pid": os.getpid(),
                "busy_s": time.perf_counter() - began,
                "trials": stop - start,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "trace": tracer.snapshot() if tracer is not None else None,
            }
            return payload

        pool_mod._run_chunk = accounted_chunk

        trial_pool = pool_mod.TrialPool
        run_parallel = trial_pool._run_parallel
        pool_map = trial_pool.map
        run_isolated = trial_pool._run_isolated

        def accounted_parallel(pool, token, chunks):
            payloads = run_parallel(pool, token, chunks)
            for payload in payloads:
                extra = payload.pop(_PAYLOAD_KEY, None)
                if extra is None:
                    continue
                if extra["trace"] is not None:
                    self.tracer.absorb(extra["trace"])
                self.chunks.append(extra)
            return payloads

        def accounted_map(pool, fn, items):
            first = len(self.chunks)
            began = time.perf_counter()
            try:
                return pool_map(pool, fn, items)
            finally:
                wall = time.perf_counter() - began
                busy: Dict[int, float] = defaultdict(float)
                for extra in self.chunks[first:]:
                    busy[extra["pid"]] += extra["busy_s"]
                if busy:
                    self.maps.append((wall, pool.jobs, max(busy.values())))

        def accounted_isolated(pool, ctx, token, index):
            self.retries += 1
            return run_isolated(pool, ctx, token, index)

        trial_pool._run_parallel = accounted_parallel
        trial_pool._run_isolated = accounted_isolated
        trial_pool.map = accounted_map

    def trace(self, tracer: Tracer) -> None:
        """From now on, time pool maps and collect workers' layer times."""
        from repro.parallel.pool import TrialPool

        self.tracer = tracer
        self.chunks.clear()
        self.maps.clear()
        self.retries = 0
        TrialPool.map = tracer.timed("parallel.map", TrialPool.map)

    def busy_s(self) -> float:
        return sum(extra["busy_s"] for extra in self.chunks)

    def maxrss_kb(self) -> int:
        return max((extra["maxrss_kb"] for extra in self.chunks), default=0)

    def layer_metrics(self) -> Dict[str, float]:
        capacity = sum(wall * jobs for wall, jobs, _ in self.maps)
        return {
            "parallel.worker_busy_s": self.busy_s(),
            "parallel.efficiency": self.busy_s() / capacity if capacity else 0.0,
            "parallel.dispatch_s": sum(wall - busiest for wall, _, busiest in self.maps),
            "parallel.retries": float(self.retries),
        }


def layer_rows(snap: Dict[str, Dict[str, float]], total_s: float) -> Dict[str, float]:
    """``<layer>.calls`` / ``<layer>.self_s`` for every layer, the exact
    counts, and ``unattributed.self_s`` = total minus every layer's self
    time."""
    rows: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        rows[f"{layer}.calls"] = float(snap["calls"].get(layer, 0))
        rows[f"{layer}.self_s"] = float(snap["self_s"].get(layer, 0.0))
    for name in EXACT_COUNTS:
        rows[name] = float(snap["counts"].get(name, 0))
    attempts = snap["counts"].get("distributed.attempts", 0)
    rows["distributed.candidates_per_attempt"] = (
        snap["counts"].get("distributed.candidates", 0) / attempts if attempts else 0.0
    )
    rows["bench.traced_total_s"] = total_s
    rows["unattributed.self_s"] = total_s - sum(
        rows[f"{layer}.self_s"] for layer in TIMED_LAYERS
    )
    return rows
