"""Structured event sinks: JSONL on disk, a list in memory.

Every telemetry record is one flat JSON object with an ``event`` field
(``span``, ``row``, ``table``, ``summary``, or anything a caller passes
to :func:`event`).  The JSONL shape means ``scripts/trace_report.py``
— or plain ``jq`` — can aggregate a run without importing the library.
"""

from __future__ import annotations

import json
import os
import time
from itertools import count as _itercount
from typing import Any, Callable, Dict, List, Optional, TextIO, Union

from repro.obs import live as _live
from repro.obs.core import STATE

#: Monotonic sequence number shared by every record of a process.
_SEQ = _itercount()


def _jsonable(value: Any) -> Any:
    """Best-effort JSON coercion; exotic values degrade to ``repr``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


class JsonlSink:
    """Write telemetry records to a JSONL file, one object per line.

    Opening truncates an existing file.  A mid-run disk failure must
    not take the experiment down with it: the first :class:`OSError`
    from a write is remembered in :attr:`error`, the file is closed,
    and every later record is dropped —
    :meth:`repro.obs.session.ObsSession.write_failure` inspects
    :attr:`error` at the end of the run and turns it into exit code 3.

    ``flush_every=N`` flushes the file every N records so a live tail
    (``scripts/obs_watch.py``, ``tail -f``) sees events promptly instead
    of waiting on interpreter buffering; ``None`` (the default) leaves
    flushing to the interpreter, ``1`` flushes every record.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        flush_every: Optional[int] = None,
    ):
        if flush_every is not None and flush_every <= 0:
            raise ValueError(
                f"flush_every must be positive or None, got {flush_every!r}"
            )
        self.path = str(path)
        self.flush_every = flush_every
        self.error: Optional[OSError] = None
        self._unflushed = 0
        self._fh: Optional[TextIO] = open(self.path, "w")

    def write(self, record: Dict[str, Any]) -> None:
        """Serialize one record; closed or failed sinks drop silently."""
        if self._fh is None:
            return
        try:
            self._fh.write(json.dumps(_jsonable(record)) + "\n")
            if self.flush_every is not None:
                self._unflushed += 1
                if self._unflushed >= self.flush_every:
                    self._fh.flush()
                    self._unflushed = 0
        except OSError as exc:
            self._fail(exc)

    def flush(self) -> None:
        if self._fh is not None:
            try:
                self._fh.flush()
                self._unflushed = 0
            except OSError as exc:
                self._fail(exc)

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError as exc:
                self.error = self.error or exc
            self._fh = None

    def _fail(self, exc: OSError) -> None:
        """Record the first failure and stop writing."""
        self.error = self.error or exc
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


class RotatingJsonlSink(JsonlSink):
    """A :class:`JsonlSink` that rotates the file when it grows too big.

    Long-lived processes (the serving daemon's wire capture, a live
    export that runs for days) cannot stream into one ever-growing
    file.  When appending the next record would push the current file
    past ``max_bytes``, the file is closed and shifted down a numbered
    chain — ``path`` → ``path.1`` → … → ``path.keep`` — with the
    oldest segment dropped, and a fresh ``path`` is opened.

    ``header_factory`` (when given) is called after every rotation and
    its record written first, so each segment of a rotated wire capture
    still starts with the ``wire_capture`` header that
    :meth:`repro.obs.capture.WireCapture.load` expects.  Rotation is
    size-triggered but never splits a record: a single record larger
    than ``max_bytes`` still lands intact in its own segment.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        max_bytes: int = 8 << 20,
        keep: int = 2,
        flush_every: Optional[int] = 1,
        header_factory: Optional[Callable[[], Dict[str, Any]]] = None,
    ):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes!r}")
        if keep < 1:
            raise ValueError(f"keep must be at least 1, got {keep!r}")
        self.max_bytes = int(max_bytes)
        self.keep = int(keep)
        self.header_factory = header_factory
        #: Completed rotations (telemetry / tests).
        self.rotations = 0
        self._bytes = 0
        super().__init__(path, flush_every=flush_every)

    def write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            return
        line = json.dumps(_jsonable(record)) + "\n"
        if self._bytes and self._bytes + len(line) > self.max_bytes:
            self._rotate()
            if self._fh is None:  # rotation hit a disk error
                return
        try:
            self._fh.write(line)
            self._bytes += len(line)
            if self.flush_every is not None:
                self._unflushed += 1
                if self._unflushed >= self.flush_every:
                    self._fh.flush()
                    self._unflushed = 0
        except OSError as exc:
            self._fail(exc)

    def rotated_paths(self) -> List[str]:
        """Existing rotated segments, oldest last (``path.1`` is newest)."""
        return [
            f"{self.path}.{i}"
            for i in range(1, self.keep + 1)
            if os.path.exists(f"{self.path}.{i}")
        ]

    def _rotate(self) -> None:
        try:
            self._fh.close()
        except OSError as exc:
            self._fh = None
            self._fail(exc)
            return
        self._fh = None
        try:
            oldest = f"{self.path}.{self.keep}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for i in range(self.keep - 1, 0, -1):
                src = f"{self.path}.{i}"
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{i + 1}")
            os.replace(self.path, f"{self.path}.1")
            self._fh = open(self.path, "w")
        except OSError as exc:
            self._fail(exc)
            return
        self._bytes = 0
        self._unflushed = 0
        self.rotations += 1
        if self.header_factory is not None:
            header = self.header_factory()
            try:
                line = json.dumps(_jsonable(header)) + "\n"
                self._fh.write(line)
                self._bytes += len(line)
            except OSError as exc:
                self._fail(exc)


class ListSink:
    """In-memory sink for tests and programmatic inspection."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def flush(self) -> None:  # interface parity with JsonlSink
        pass

    def close(self) -> None:
        pass

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """Records whose ``event`` field equals ``kind``."""
        return [r for r in self.records if r.get("event") == kind]


def emit(record: Dict[str, Any]) -> None:
    """Send one record to the active sink, stamping ``seq`` and ``ts``.

    A no-op while telemetry is disabled, or while neither a sink nor a
    live bus is installed; callers never need to guard.  While a
    :mod:`repro.obs.live` bus is installed the stamped record is also
    published to it (even with no sink — ``--slo --no-telemetry`` still
    evaluates rules live).
    """
    if not STATE.enabled:
        return
    bus = _live.active()
    if STATE.sink is None and bus is None:
        return
    stamped = dict(record)
    stamped.setdefault("seq", next(_SEQ))
    stamped.setdefault("ts", time.time())
    if STATE.sink is not None:
        STATE.sink.write(stamped)
    if bus is not None:
        bus.publish(stamped)


def event(kind: str, **fields: Any) -> None:
    """Emit an ad-hoc structured event (e.g. ``event("row", table=...)``)."""
    record: Dict[str, Any] = {"event": kind}
    record.update(fields)
    emit(record)
