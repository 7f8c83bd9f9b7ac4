"""The serving workloads: ``serve_read`` (closed loop) and ``serve_mixed``
(open loop), against a real ``python -m repro.serving.server`` process.

Everything the load generator sends is encoded during set-up, so the
timed loop only writes prepared frames and parses replies.  One process
drives two connections through one selector; the daemon, started in its
own session, is the only other process.
"""

from __future__ import annotations

import bisect
import json
import resource
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.graphs.generators as generators
import repro.graphs.mincut as mincut
from repro.kernels import get_backend
from repro.serving.cache import SnapshotCache
from repro.serving.client import ServingClient
from repro.serving.protocol import encode_frame, graph_from_payload, graph_oid, graph_payload, mask_to_row

from common import (
    Children,
    derive_seeds,
    digest,
    host_cpu_times,
    median,
    percentile,
    process_cpu_s,
    process_status_kb,
    program_env,
    steal_fraction,
)
from tracer import layer_rows, snapshot_delta

HERE = Path(__file__).resolve().parent

READ_N, READ_DEGREE = 512, 8
SIDE_POOL = 64
CONNECTIONS = 2
#: Closed loop: requests each connection keeps in flight.  Together they
#: queue two full batches of the daemon's default 64 rows, so every flush
#: is full and a host stall of a few ms is a small part of each request's
#: wait.  With 16 each, flush widths fell into different patterns from run
#: to run (median latency moved by up to 50%); with 32 each, one stall
#: doubled the p99.
IN_FLIGHT = 64
#: Open loop: reads per second on the read connection.
READ_RATE = 400.0
#: Open loop: one write session every this many seconds (and one
#: measurement segment per write period).
WRITE_PERIOD_S = 1.5
#: Closed loop: measurement segment length.
READ_SEGMENT_S = 1.0
WRITE_N, WRITE_DEGREE = 64, 8
SKETCH_QUERIES = 3
SKETCH = {"epsilon": 0.5, "connectivity": "exact"}
WARMUP_READS = 400
DRAIN_S = 20.0
CLIENT = "loadgen"
SERVER = "sketch-server"


def _frame(kind: str, payload: Any) -> bytes:
    return encode_frame(CLIENT, SERVER, kind, payload)[0]


def _mask_hex(row: np.ndarray) -> str:
    return np.packbits(row, bitorder="little").tobytes().hex()


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


@dataclass
class WriteSession:
    payload: Dict[str, Any]
    oid: str
    sketch_seed: int
    frames: List[bytes]  # register, sketch queries, min_cut


@dataclass
class ServeInputs:
    read_payload: Dict[str, Any]
    read_oid: str
    masks: List[str]
    sequence: np.ndarray  # mask index of each read, in send order
    #: Write sessions; the first one warms the daemon during set-up.
    sessions: List[WriteSession] = field(default_factory=list)

    def digest(self) -> str:
        return digest(
            {
                "read": self.read_oid,
                "masks": self.masks,
                "sequence": self.sequence.tolist(),
                "writes": [s.oid for s in self.sessions],
                "frames": [digest([f.hex() for f in s.frames]) for s in self.sessions],
            }
        )


def build_inputs(seed: int, mixed: bool, seconds: float) -> ServeInputs:
    graph_seed, side_seed, seq_seed, write_seed = derive_seeds(seed, "serve", 4)
    graph = generators.random_regularish_ugraph(READ_N, READ_DEGREE, rng=graph_seed)
    payload = graph_payload(graph)
    gen = np.random.default_rng(side_seed)
    masks = []
    for _ in range(SIDE_POOL):
        row = np.zeros(READ_N, dtype=bool)
        size = int(gen.integers(1, READ_N))
        row[gen.choice(READ_N, size=size, replace=False)] = True
        masks.append(_mask_hex(row))
    length = int(READ_RATE * seconds) + 1 if mixed else 1 << 16
    sequence = np.random.default_rng(seq_seed).integers(0, SIDE_POOL, size=length)
    inputs = ServeInputs(payload, graph_oid(payload), masks, sequence)
    if mixed:
        count = int(seconds / WRITE_PERIOD_S) + 2  # warm-up session + the window's
        for session_seed in derive_seeds(write_seed, "writes", count):
            inputs.sessions.append(_write_session(session_seed))
    return inputs


def _write_session(seed: int) -> WriteSession:
    graph = generators.random_regularish_ugraph(WRITE_N, WRITE_DEGREE, rng=seed)
    payload = graph_payload(graph)
    oid = graph_oid(payload)
    gen = np.random.default_rng(seed)
    sketch_seed = seed % 2**31
    frames = [_frame("serve.register", payload)]
    for _ in range(SKETCH_QUERIES):
        row = np.zeros(WRITE_N, dtype=bool)
        row[gen.choice(WRITE_N, size=WRITE_N // 2, replace=False)] = True
        frames.append(
            _frame("serve.sketch_query", dict(SKETCH, oid=oid, mask=_mask_hex(row), seed=sketch_seed))
        )
    frames.append(_frame("serve.min_cut", {"oid": oid}))
    return WriteSession(payload, oid, sketch_seed, frames)


def cache_budget(inputs: ServeInputs) -> int:
    """A snapshot budget that holds the read snapshot plus one write graph
    with its sketch, but not two: every registration evicts the previous
    write graph and never the read snapshot, which reads keep recent."""
    from repro.sketch.sparsifier import SparsifierSketch

    def as_received(payload):  # the daemon builds graphs from decoded JSON
        return graph_from_payload(json.loads(json.dumps(payload)))

    cache = SnapshotCache(max_bytes=1 << 40)
    read = cache.put(inputs.read_oid, as_received(inputs.read_payload))
    first = inputs.sessions[0]
    entry = cache.put(first.oid, as_received(first.payload))
    bare = entry.nbytes
    sketch = SparsifierSketch.from_undirected(
        entry.graph, epsilon=SKETCH["epsilon"], rng=np.random.default_rng(first.sketch_seed),
        connectivity=SKETCH["connectivity"],
    )
    cache.add_sketch_bytes(entry, sketch)
    return read.nbytes + entry.nbytes + bare // 2


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------


class Daemon:
    """One serving daemon process, registered for cleanup at ``Popen``."""

    def __init__(self, children: Children, tmpdir: Path, cache_bytes: int, traced: bool,
                 new_session: bool = True):
        args = ["--port", "0", "--cache-bytes", str(cache_bytes)]
        self.own_group = new_session
        if traced:
            cmd = [sys.executable, str(HERE / "daemon.py"), *args]
        else:
            cmd = [sys.executable, "-m", "repro.serving.server", *args]
        self.log_path = tmpdir / f"daemon-{time.monotonic_ns()}.log"
        with open(self.log_path, "wb") as log_file:
            self.proc = children.spawn(
                cmd, new_session=new_session, stdin=subprocess.DEVNULL, stdout=log_file,
                stderr=log_file, env=program_env(tmpdir), cwd=str(tmpdir),
            )
        print(f"perfbench: daemon pid {self.proc.pid}", file=sys.stderr, flush=True)
        self.host, self.port = self._await_announcement(timeout_s=60.0)

    def _await_announcement(self, timeout_s: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if line.startswith("serving: tcp://"):
                    host, port = line.split("tcp://", 1)[1].rsplit(":", 1)
                    return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            f"serving daemon did not announce its port (exit {self.proc.poll()}):\n"
            + self.log_path.read_text(errors="replace")[-2000:]
        )

    def cpu_s(self) -> float:
        return process_cpu_s(self.proc.pid)

    def status_kb(self, key: str) -> int:
        return process_status_kb(self.proc.pid, key)

    def stop(self) -> None:
        Children.stop(self.proc, own_group=self.own_group)


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------


class Conn:
    """A non-blocking client connection that parses reply frames."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.inbuf = bytearray()
        self.outbuf = bytearray()

    def send(self, data: bytes) -> None:
        self.outbuf += data
        self.flush()

    def flush(self) -> None:
        while self.outbuf:
            try:
                sent = self.sock.send(self.outbuf)
            except BlockingIOError:
                return
            del self.outbuf[:sent]

    def replies(self) -> List[Tuple[str, Any]]:
        try:
            data = self.sock.recv(1 << 18)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("serving daemon closed the connection")
        buf = self.inbuf
        buf += data
        out = []
        while len(buf) >= 4:
            header_len = int.from_bytes(buf[:4], "big")
            if len(buf) < 4 + header_len:
                break
            header = json.loads(buf[4 : 4 + header_len])
            end = 4 + header_len + header["payload_len"]
            if len(buf) < end:
                break
            out.append((header["kind"], json.loads(buf[4 + header_len : end])))
            del buf[:end]
        return out

    def close(self) -> None:
        self.sock.close()


@dataclass
class LoadResult:
    began: float
    ended: float
    attempted: int = 0
    failed: int = 0
    #: (start, end) of each answered read; start is the send time in the
    #: closed loop and the due time in the open loop.
    reads: List[Tuple[float, float]] = field(default_factory=list)
    #: (due, end) of each completed write session.
    writes: List[Tuple[float, float]] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    #: (time, daemon CPU seconds), one per segment boundary.
    cpu_marks: List[Tuple[float, float]] = field(default_factory=list)
    served: Dict[int, float] = field(default_factory=dict)  # mask -> first value
    mismatches: int = 0
    min_cuts: Dict[int, float] = field(default_factory=dict)  # session -> value
    errors: List[str] = field(default_factory=list)

    def record_read(self, kind: str, payload: Any, mask: int, start: float, end: float) -> None:
        if kind != "serve.cut_weight.ok":
            self.failed += 1
            self.errors.append(f"{kind}: {payload}")
            return
        self.reads.append((start, end))
        value = payload["value"]
        first = self.served.setdefault(mask, value)
        if first != value:
            self.mismatches += 1

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes)


class Marks:
    """Samples a CPU clock at every segment boundary of the timed window."""

    def __init__(self, result: LoadResult, cpu: Optional[Callable[[], float]], segment_s: float,
                 seconds: float):
        self.result, self.cpu, self.segment_s = result, cpu, segment_s
        self.count = int(seconds / segment_s + 1e-9)
        self.next = result.began
        self.tick(result.began)

    def tick(self, now: float) -> None:
        if self.cpu is not None and now >= self.next and len(self.result.cpu_marks) <= self.count:
            self.result.cpu_marks.append((now, self.cpu()))
            self.next = self.result.began + len(self.result.cpu_marks) * self.segment_s

    def finish(self, now: float) -> None:
        """Close the last segment when the loop drained before its boundary."""
        if self.cpu is not None and len(self.result.cpu_marks) <= self.count:
            self.result.cpu_marks.append((now, self.cpu()))


def closed_loop(conns: List[Conn], frames: List[List[bytes]], sequence: np.ndarray,
                seconds: float, cpu: Optional[Callable[[], float]] = None) -> LoadResult:
    """Each connection keeps ``IN_FLIGHT`` reads outstanding until time is up.

    ``frames[slot][mask]`` is the prepared request for ``mask`` in a
    connection's ``slot``; its ``rid`` is ``slot * SIDE_POOL + mask``.
    """
    sel = selectors.DefaultSelector()
    sent_at = [[0.0] * IN_FLIGHT for _ in conns]
    cursor = [c for c in range(len(conns))]
    clock = time.perf_counter
    result = LoadResult(began=clock(), ended=0.0)
    marks = Marks(result, cpu, READ_SEGMENT_S, seconds)
    end = result.began + seconds
    outstanding = 0
    for c, conn in enumerate(conns):
        sel.register(conn.sock, selectors.EVENT_READ, c)
        burst = bytearray()
        for slot in range(IN_FLIGHT):
            mask = int(sequence[cursor[c] % len(sequence)])
            cursor[c] += len(conns)
            burst += frames[slot][mask]
            sent_at[c][slot] = clock()
        conn.send(bytes(burst))
        outstanding += IN_FLIGHT
        result.attempted += IN_FLIGHT
    deadline = end + DRAIN_S
    try:
        while outstanding:
            now = clock()
            if now >= deadline:
                result.failed += outstanding
                result.errors.append(f"{outstanding} reads unanswered at the drain deadline")
                break
            marks.tick(now)
            for key, _ in sel.select(timeout=deadline - now):
                c = key.data
                conn = conns[c]
                burst = bytearray()
                for kind, payload in conn.replies():
                    now = clock()
                    outstanding -= 1
                    slot, mask = divmod(payload.get("rid", 0), SIDE_POOL)
                    result.record_read(kind, payload, mask, sent_at[c][slot], now)
                    if now < end:
                        mask = int(sequence[cursor[c] % len(sequence)])
                        cursor[c] += len(conns)
                        burst += frames[slot][mask]
                        sent_at[c][slot] = now
                        outstanding += 1
                        result.attempted += 1
                if burst:
                    conn.send(bytes(burst))
                elif conn.outbuf:
                    conn.flush()
        marks.finish(clock())
    finally:
        sel.close()
    result.ended = clock()
    return result


def open_loop(read_conn: Conn, write_conn: Conn, read_frames: List[bytes], sequence: np.ndarray,
              sessions: List[WriteSession], seconds: float,
              cpu: Optional[Callable[[], float]] = None) -> LoadResult:
    """Reads due every ``1/READ_RATE`` s, write sessions every
    ``WRITE_PERIOD_S`` s, each timed from when it was due."""
    sel = selectors.DefaultSelector()
    sel.register(read_conn.sock, selectors.EVENT_READ, "read")
    sel.register(write_conn.sock, selectors.EVENT_READ, "write")
    clock = time.perf_counter
    result = LoadResult(began=clock(), ended=0.0)
    marks = Marks(result, cpu, WRITE_PERIOD_S, seconds)
    began = result.began
    reads_total = int(READ_RATE * seconds)
    sessions_total = min(len(sessions), int(seconds / WRITE_PERIOD_S))
    due_of = [0.0] * reads_total
    next_read = 0
    reads_open = 0
    session = -1  # session in progress (index), or -1
    step = 0
    session_due = 0.0
    next_session = 0
    deadline = began + seconds + DRAIN_S
    try:
        while next_read < reads_total or reads_open or session >= 0 or next_session < sessions_total:
            now = clock()
            if now >= deadline:
                result.failed += reads_open + (1 if session >= 0 else 0)
                result.errors.append("open loop did not drain before the deadline")
                break
            marks.tick(now)
            burst = bytearray()
            while next_read < reads_total and began + next_read / READ_RATE <= now:
                due = began + next_read / READ_RATE
                due_of[next_read] = due
                burst += read_frames[next_read]
                result.late_ms.append((now - due) * 1e3)
                next_read += 1
                reads_open += 1
                result.attempted += 1
            if burst:
                read_conn.send(bytes(burst))
            if session < 0 and next_session < sessions_total:
                due = began + (next_session + 0.5) * WRITE_PERIOD_S
                if due <= now:
                    session, step, session_due = next_session, 0, due
                    next_session += 1
                    result.attempted += 1
                    write_conn.send(sessions[session].frames[0])
            wake = min(deadline, marks.next)
            if next_read < reads_total:
                wake = min(wake, began + next_read / READ_RATE)
            if session < 0 and next_session < sessions_total:
                wake = min(wake, began + (next_session + 0.5) * WRITE_PERIOD_S)
            for key, _ in sel.select(timeout=max(0.0, wake - clock())):
                if key.data == "read":
                    for kind, payload in read_conn.replies():
                        rid = payload.get("rid", 0)
                        reads_open -= 1
                        result.record_read(kind, payload, int(sequence[rid]), due_of[rid], clock())
                    continue
                for kind, payload in write_conn.replies():
                    frames = sessions[session].frames
                    if kind == "serve.error":
                        result.failed += 1
                        result.errors.append(f"write session {session}: {payload}")
                        session = -1
                        break
                    if kind == "serve.min_cut.ok":
                        result.min_cuts[session] = payload["value"]
                    step += 1
                    if step == len(frames):
                        result.writes.append((session_due, clock()))
                        session = -1
                    else:
                        write_conn.send(frames[step])
            read_conn.flush()
            write_conn.flush()
        marks.finish(clock())
    finally:
        sel.close()
    result.ended = clock()
    return result


def segment_stats(load: LoadResult) -> Dict[str, Any]:
    """End-to-end metrics per segment of the window, and their medians.

    A segment runs between consecutive CPU marks (1 s for the closed
    loop; one write period, holding exactly one write session, for the
    open loop).  Reads count toward the segment they started in, and
    ops and CPU toward the segment they completed in.  Medians over
    segments keep a burst of host CPU steal in one segment from moving
    the run's figures.
    """
    marks = load.cpu_marks
    rows = []
    reads = sorted(load.reads)
    starts = [s for s, _ in reads]
    ends = sorted([end for _, end in load.reads] + [end for _, end in load.writes])
    for (t0, c0), (t1, c1) in zip(marks, marks[1:]):
        first, last = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        lat = [1e3 * (e - s) for s, e in reads[first:last]]
        done = bisect.bisect_left(ends, t1) - bisect.bisect_left(ends, t0)
        if not lat or not done:
            continue
        rows.append({
            "ops_per_s": done / (t1 - t0),
            "cpu_ms_per_op": 1e3 * (c1 - c0) / done,
            "latency_p50_ms": median(lat),
            "latency_p90_ms": percentile(lat, 90),
            "latency_p99_ms": percentile(lat, 99),
        })
    out = {name: median([row[name] for row in rows]) for name in rows[0]} if rows else {}
    out["segments"] = len(rows)
    return out


# ----------------------------------------------------------------------
# the workload driver
# ----------------------------------------------------------------------


class ServeWorkload:
    """``serve_read`` or ``serve_mixed`` against one daemon at a time."""

    def __init__(self, name: str, seed: int, children: Children, tmpdir: Path,
                 seconds: float, own_session: bool = True):
        self.name = name
        self.mixed = name == "serve_mixed"
        self.seed = seed
        self.children = children
        self.tmpdir = tmpdir
        self.seconds = seconds
        self.own_session = own_session
        self.daemon: Optional[Daemon] = None
        self.conns: List[Conn] = []

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        self.backend = get_backend()
        self.inputs = build_inputs(self.seed, self.mixed, self.seconds)
        self.input_digest = self.inputs.digest()
        oid = self.inputs.read_oid
        self.closed_frames = [
            [
                _frame("serve.cut_weight", {"oid": oid, "mask": m, "rid": slot * SIDE_POOL + i})
                for i, m in enumerate(self.inputs.masks)
            ]
            for slot in range(IN_FLIGHT)
        ]
        self.open_frames = [
            _frame("serve.cut_weight", {"oid": oid, "mask": self.inputs.masks[m], "rid": rid})
            for rid, m in enumerate(self.inputs.sequence.tolist())
        ] if self.mixed else []
        self.cache_bytes = cache_budget(self.inputs) if self.mixed else 256 << 20
        self.start_daemon(traced=False)

    def start_daemon(self, traced: bool) -> None:
        self.stop_daemon()
        self.daemon = Daemon(self.children, self.tmpdir, self.cache_bytes, traced,
                             new_session=self.own_session)
        with ServingClient(self.daemon.host, self.daemon.port, name=CLIENT) as client:
            reply = client.request("serve.register", self.inputs.read_payload)
            if reply["oid"] != self.inputs.read_oid:
                raise RuntimeError("daemon assigned a different oid to the read snapshot")
            if self.mixed:  # the first session warms the write path
                for frame_kind, payload in _session_requests(self.inputs.sessions[0]):
                    client.request(frame_kind, payload)
        self.conns = [Conn(self.daemon.host, self.daemon.port) for _ in range(CONNECTIONS)]
        warm = LoadResult(began=0.0, ended=0.0)
        while warm.attempted < WARMUP_READS:
            more = closed_loop(self.conns, self.closed_frames, self.inputs.sequence, 0.0)
            warm.attempted += more.attempted
            warm.failed += more.failed
            warm.errors += more.errors
        if warm.failed:
            raise RuntimeError(f"warm-up reads failed: {warm.errors[:3]}")

    def stop_daemon(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def close(self) -> None:
        self.stop_daemon()

    # -- measuring ---------------------------------------------------------

    def _stats(self) -> Dict[str, Any]:
        with ServingClient(self.daemon.host, self.daemon.port, name=CLIENT) as client:
            return client.request("serve.stats")

    def measure(self, seconds: float, traced: bool = False) -> Dict[str, Any]:
        daemon = self.daemon
        stats0 = self._stats() if traced else None
        rss0 = daemon.status_kb("VmRSS")
        host0 = host_cpu_times()
        gen0 = resource.getrusage(resource.RUSAGE_SELF)
        if self.mixed:
            load = open_loop(self.conns[0], self.conns[1], self.open_frames, self.inputs.sequence,
                             self.inputs.sessions[1:], seconds, cpu=daemon.cpu_s)
        else:
            load = closed_loop(self.conns, self.closed_frames, self.inputs.sequence, seconds,
                               cpu=daemon.cpu_s)
        gen1 = resource.getrusage(resource.RUSAGE_SELF)
        host1 = host_cpu_times()
        rss1 = daemon.status_kb("VmRSS")
        out = {
            "load": load,
            "loadgen_cpu_s": (gen1.ru_utime + gen1.ru_stime) - (gen0.ru_utime + gen0.ru_stime),
            "steal": steal_fraction(host0, host1),
            "peak_rss_mb": daemon.status_kb("VmHWM") / 1024.0,
            "rss_growth_kb": rss1 - rss0,
        }
        if traced:
            out["stats"] = (stats0, self._stats())
        return out

    def checks(self, load: LoadResult) -> List[str]:
        """Served bytes against in-process evaluation of the same inputs."""
        problems = []
        if load.mismatches:
            problems.append(f"{load.mismatches} reads returned a different value for the same mask")
        csr = graph_from_payload(self.inputs.read_payload).freeze()
        masks = sorted(load.served)
        rows = np.stack([mask_to_row(self.inputs.masks[m], READ_N) for m in masks])
        expected = [float(v) for v in csr.cut_weights_stable(rows)]
        served = [load.served[m] for m in masks]
        if digest(served) != digest(expected):
            problems.append("served cut_weight values differ from in-process cut_weights_stable")
        for index, value in load.min_cuts.items():
            graph = graph_from_payload(self.inputs.sessions[1 + index].payload)
            truth = float(mincut.stoer_wagner(graph)[0])
            if value != truth:
                problems.append(f"served min_cut {value!r} != in-process stoer_wagner {truth!r}")
        return problems


def _session_requests(session: WriteSession):
    """The session's requests as (kind, payload), for the blocking client."""
    out = []
    for frame in session.frames:
        header_len = int.from_bytes(frame[:4], "big")
        header = json.loads(frame[4 : 4 + header_len])
        out.append((header["kind"], json.loads(frame[4 + header_len :])))
    return out


def serving_layer_rows(measured: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer rows from the traced daemon's counters between the
    ``serve.stats`` snapshots that bracket the window."""
    before, after = measured["stats"]
    trace0, trace1 = before["perfbench"], after["perfbench"]
    snap = snapshot_delta(trace1["trace"], trace0["trace"])
    rows = layer_rows(snap, trace1["clock"] - trace0["clock"])
    batches = after["batcher"]["batches"] - before["batcher"]["batches"]
    batch_rows = after["batcher"]["rows"] - before["batcher"]["rows"]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    waited = snap["counts"].get("serving.batcher.wait_rows", 0)
    load: LoadResult = measured["load"]
    rows.update(
        {
            "serving.batcher.flushes": float(batches),
            "serving.batcher.width": batch_rows / batches if batches else 0.0,
            "serving.batcher.queue_wait_s": (
                snap["counts"].get("serving.batcher.wait_s", 0.0) / waited if waited else 0.0
            ),
            "serving.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "serving.cache.evictions": float(after["cache"]["evictions"] - before["cache"]["evictions"]),
            "obs.rss_growth_kb_per_kop": (
                measured["rss_growth_kb"] / (load.ops / 1000.0) if load.ops else 0.0
            ),
        }
    )
    return rows


