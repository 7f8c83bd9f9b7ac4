"""Wire-level protocol capture: every message as a causally-sequenced event.

Every theorem this repository reproduces is a statement about *messages*:
Theorems 1.1/1.2 charge the bits Alice ships to Bob, Theorem 1.3 charges
the 2-bit oracle simulations of Lemma 5.6, and the distributed min-cut
results charge coordinator↔server traffic.  The metrics layer (PR 2)
sees those quantities only as aggregate counters; this module makes the
wire itself observable.

A :class:`WireCapture` records one :class:`WireMessage` per transfer —
``(seq, sender, receiver, kind, bits, payload digest, enclosing span
path)`` — so every wire byte is attributable both to a code region and
to the theorem whose bound prices it.  Instrumentation sites call the
module-level :func:`record` hook, which is a two-branch no-op unless the
global obs switch is on *and* a capture is installed.

Captured transcripts round-trip through JSONL (:meth:`WireCapture.save`
/ :meth:`WireCapture.load`), diff message-by-message
(:func:`first_divergence` — the engine of ``scripts/wire_replay.py``'s
deterministic replay verifier), and export to Chrome trace-event JSON
via :mod:`repro.obs.export`.

Payload digests are SHA-256 over a *canonical* byte encoding
(:func:`payload_digest`): raw bytes pass through, graphs reduce to their
sorted edge list, everything else to ``repr``.  Canonicalisation is what
makes a replayed transcript byte-comparable to the recorded one — two
runs of the same seeded game produce identical digests or the replay
verifier pinpoints the first message where they did not.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ObsError
from repro.obs import live as _live
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.core import STATE
from repro.obs.sink import _jsonable

#: Fields compared (in order) when diffing two transcripts.
COMPARED_FIELDS = ("sender", "receiver", "kind", "bits", "digest")

#: Schema version stamped into capture headers.
CAPTURE_VERSION = 1


def _canonical_bytes(payload: Any) -> bytes:
    """A deterministic byte encoding of a message payload.

    Graphs (anything with a callable ``edges()``) reduce to their sorted
    ``(repr(u), repr(v), float(w))`` edge list so that digest equality
    means edge-set equality regardless of insertion order; numpy scalars
    normalise through ``float``/``int`` so digests survive numpy version
    changes between record and replay.
    """
    if payload is None:
        return b""
    if isinstance(payload, bytes):
        return payload
    if isinstance(payload, (bytearray, memoryview)):
        return bytes(payload)
    if isinstance(payload, str):
        return payload.encode("utf-8")
    edges = getattr(payload, "edges", None)
    if callable(edges):
        triples = sorted(
            (repr(u), repr(v), float(w)) for u, v, w in edges()
        )
        return repr(triples).encode("utf-8")
    # numbers.Integral/Real cover numpy scalars too, so digests survive
    # numpy version changes between record and replay.
    if isinstance(payload, bool) or isinstance(payload, numbers.Integral):
        return repr(int(payload)).encode("utf-8")
    if isinstance(payload, numbers.Real):
        return repr(float(payload)).encode("utf-8")
    if isinstance(payload, (list, tuple)):
        return repr(
            tuple(_canonical_bytes(item) for item in payload)
        ).encode("utf-8")
    if isinstance(payload, (set, frozenset)):
        return repr(
            sorted(_canonical_bytes(item) for item in payload)
        ).encode("utf-8")
    if isinstance(payload, dict):
        return repr(
            sorted(
                (str(k), _canonical_bytes(v)) for k, v in payload.items()
            )
        ).encode("utf-8")
    return repr(payload).encode("utf-8")


def payload_digest(payload: Any) -> str:
    """SHA-256 hex digest of the canonical payload encoding."""
    return hashlib.sha256(_canonical_bytes(payload)).hexdigest()


@dataclass(frozen=True)
class WireMessage:
    """One captured transfer, causally ordered by ``seq``."""

    seq: int
    sender: str
    receiver: str
    kind: str
    bits: int
    digest: str
    span: str = ""
    meta: Dict[str, Any] = field(default_factory=dict)

    def as_record(self) -> Dict[str, Any]:
        """The JSONL payload (``event: "wire"``)."""
        record: Dict[str, Any] = {
            "event": "wire",
            "seq": self.seq,
            "sender": self.sender,
            "receiver": self.receiver,
            "kind": self.kind,
            "bits": self.bits,
            "digest": self.digest,
            "span": self.span,
        }
        if self.meta:
            record["meta"] = _jsonable(self.meta)
        return record

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "WireMessage":
        """Inverse of :meth:`as_record`; missing fields get neutral values."""
        return WireMessage(
            seq=int(record.get("seq", 0)),
            sender=str(record.get("sender", "?")),
            receiver=str(record.get("receiver", "?")),
            kind=str(record.get("kind", "?")),
            bits=int(record.get("bits", 0)),
            digest=str(record.get("digest", "")),
            span=str(record.get("span", "")),
            meta=dict(record.get("meta", {})),
        )


class WireCapture:
    """An in-memory protocol transcript, optionally streamed to a sink.

    ``meta`` is the capture header: for replayable captures it carries
    the game family, seed, and round count that
    :mod:`repro.obs.replay` needs to re-run the transcript; for
    ``run_all --capture-wire`` it names the experiments recorded.  When
    a ``sink`` (duck-typed ``.write(dict)``) is supplied, the header is
    written immediately and every message streams as it is recorded, so
    a crashed run still leaves a diffable prefix on disk.

    ``retain=N`` is the long-lived-server mode: only the most recent N
    messages stay in :attr:`messages` (older ones are dropped from
    memory after streaming to the sink), while ``seq`` numbering and
    the :attr:`total_bits` / :meth:`recorded` totals keep counting
    every message ever recorded.  Pair it with
    :class:`repro.obs.sink.RotatingJsonlSink` so the on-disk transcript
    is bounded too; ``retain=None`` (the default) keeps everything and
    behaves exactly as before.
    """

    def __init__(
        self,
        meta: Optional[Dict[str, Any]] = None,
        sink=None,
        retain: Optional[int] = None,
    ):
        if retain is not None and retain < 1:
            raise ObsError(f"retain must be positive or None, got {retain!r}")
        self.meta: Dict[str, Any] = dict(meta or {})
        self.meta.setdefault("capture_version", CAPTURE_VERSION)
        self.messages: List[WireMessage] = []
        self.sink = sink
        self.retain = retain
        self._next_seq = 0
        self._dropped_count = 0
        self._dropped_bits = 0
        if self.sink is not None:
            self.sink.write(self.header_record())

    def _trim(self) -> None:
        """Drop messages beyond the retention window (totals keep them)."""
        if self.retain is None:
            return
        excess = len(self.messages) - self.retain
        if excess > 0:
            for message in self.messages[:excess]:
                self._dropped_bits += message.bits
            self._dropped_count += excess
            del self.messages[:excess]

    # -- recording ------------------------------------------------------

    def record(
        self,
        sender: str,
        receiver: str,
        kind: str,
        bits: int,
        payload: Any = None,
        digest: Optional[str] = None,
        **meta: Any,
    ) -> WireMessage:
        """Append one message; ``digest`` overrides payload hashing."""
        if bits < 0:
            raise ObsError("a wire message cannot carry negative bits")
        message = WireMessage(
            seq=self._next_seq,
            sender=sender,
            receiver=receiver,
            kind=kind,
            bits=int(bits),
            digest=digest if digest is not None else payload_digest(payload),
            span=_trace.current_path(),
            meta=meta,
        )
        self._next_seq += 1
        self.messages.append(message)
        self._trim()
        if self.sink is not None:
            self.sink.write(message.as_record())
        # Mirror into the global registry (gated there) so trace reports
        # can reconcile wire totals against the comm.* counters.
        _metrics.count("wire.messages")
        _metrics.count("wire.bits", int(bits))
        return message

    def append(self, message: WireMessage) -> WireMessage:
        """Append an already-recorded message, re-sequencing its ``seq``.

        The merge half of parallel execution: a worker ships the
        messages its chunk recorded and the parent appends them here in
        deterministic chunk order.  Unlike :meth:`record` this does
        *not* mirror into the ``wire.*`` counters — the worker already
        counted the message in its own registry delta, and that delta
        merges separately; double counting would break the
        capture-bits == counter-meters reconciliation invariant.
        """
        merged = _dc_replace(message, seq=self._next_seq)
        self._next_seq += 1
        self.messages.append(merged)
        self._trim()
        if self.sink is not None:
            self.sink.write(merged.as_record())
        return merged

    # -- aggregate views ------------------------------------------------

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def recorded(self) -> int:
        """Messages ever recorded, including those past ``retain``."""
        return self._dropped_count + len(self.messages)

    @property
    def total_bits(self) -> int:
        """Sum of all message sizes — the transcript's theorem currency.

        Counts every recorded message: a retention window drops
        messages from memory, never from the bit accounting.
        """
        return self._dropped_bits + sum(m.bits for m in self.messages)

    def parties(self) -> List[str]:
        """Every sender/receiver, in order of first appearance."""
        seen: List[str] = []
        for m in self.messages:
            for party in (m.sender, m.receiver):
                if party not in seen:
                    seen.append(party)
        return seen

    def bits_by_party(self) -> Dict[str, Dict[str, int]]:
        """Per-party ``{"sent": bits, "received": bits}`` totals."""
        totals: Dict[str, Dict[str, int]] = {
            p: {"sent": 0, "received": 0} for p in self.parties()
        }
        for m in self.messages:
            totals[m.sender]["sent"] += m.bits
            totals[m.receiver]["received"] += m.bits
        return totals

    def bits_by_kind(self) -> Dict[str, int]:
        """Per-kind bit totals (``foreach.sketch``, ``ledger.charge``, …)."""
        totals: Dict[str, int] = {}
        for m in self.messages:
            totals[m.kind] = totals.get(m.kind, 0) + m.bits
        return totals

    # -- persistence ----------------------------------------------------

    def header_record(self) -> Dict[str, Any]:
        """The leading JSONL record (``event: "wire_capture"``)."""
        return {"event": "wire_capture", "meta": _jsonable(self.meta)}

    def save(self, path) -> None:
        """Write header + messages as JSONL (one object per line)."""
        with open(path, "w") as fh:
            fh.write(json.dumps(self.header_record()) + "\n")
            for message in self.messages:
                fh.write(json.dumps(message.as_record()) + "\n")

    @classmethod
    def load(cls, path) -> "WireCapture":
        """Read a capture written by :meth:`save` (or a streamed sink)."""
        meta: Dict[str, Any] = {}
        messages: List[WireMessage] = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ObsError(
                        f"{path}:{lineno}: not valid JSON ({exc})"
                    ) from exc
                kind = record.get("event")
                if kind == "wire_capture":
                    meta = dict(record.get("meta", {}))
                elif kind == "wire":
                    messages.append(WireMessage.from_record(record))
                # Foreign events (spans, rows) are tolerated and skipped,
                # so a merged telemetry file still loads as a transcript.
        capture = cls(meta=meta)
        capture.messages = messages
        capture._next_seq = len(messages)
        return capture

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WireCapture(messages={len(self.messages)}, "
            f"bits={self.total_bits}, meta={self.meta!r})"
        )


def first_divergence(
    recorded: WireCapture, replayed: WireCapture
) -> Optional[Dict[str, Any]]:
    """The first message where two transcripts disagree, or ``None``.

    Compares :data:`COMPARED_FIELDS` message by message; a common prefix
    followed by different lengths reports ``field: "length"`` at the
    first missing index.  Timestamps and span paths are *not* compared —
    determinism is a property of the protocol, not of the clock.
    """
    for index, (a, b) in enumerate(
        zip(recorded.messages, replayed.messages)
    ):
        for field_name in COMPARED_FIELDS:
            expected = getattr(a, field_name)
            actual = getattr(b, field_name)
            if expected != actual:
                return {
                    "index": index,
                    "field": field_name,
                    "expected": expected,
                    "actual": actual,
                }
    if len(recorded) != len(replayed):
        return {
            "index": min(len(recorded), len(replayed)),
            "field": "length",
            "expected": len(recorded),
            "actual": len(replayed),
        }
    return None


# ----------------------------------------------------------------------
# Installation: instrumentation sites report to whatever capture is live.
# ----------------------------------------------------------------------

_ACTIVE: List[WireCapture] = []


def install(capture: WireCapture) -> WireCapture:
    """Route :func:`record` calls to ``capture`` (stacked, last wins none —
    all installed captures receive every message)."""
    _ACTIVE.append(capture)
    return capture


def uninstall(capture: WireCapture) -> None:
    """Stop routing messages to ``capture`` (absent is a no-op)."""
    if capture in _ACTIVE:
        _ACTIVE.remove(capture)


def active() -> Optional[WireCapture]:
    """The most recently installed capture, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


def record(
    sender: str,
    receiver: str,
    kind: str,
    bits: int,
    payload: Any = None,
    **meta: Any,
) -> None:
    """The hot-path hook: no-op unless obs is on AND a capture is live.

    Instrumentation sites call this unconditionally inside their
    existing ``if STATE.enabled:`` blocks; the extra guard here keeps
    the capture-less telemetry path at one list truthiness check.
    """
    if not _ACTIVE or not STATE.enabled:
        return
    digest = payload_digest(payload)
    message = None
    for capture in _ACTIVE:
        message = capture.record(
            sender, receiver, kind, bits, digest=digest, **meta
        )
    # Tee the wire event onto the live bus (once, not per capture) so
    # SLO rules and exporters see message flow mid-protocol.  Captures
    # write to their sink directly rather than through sink.emit, so
    # that tee never fires for wire records.
    if message is not None:
        _live.publish(message.as_record())


def merge_records(records: Iterable[Dict[str, Any]]) -> int:
    """Append shipped ``wire`` records to every active capture.

    ``records`` are :meth:`WireMessage.as_record` payloads from a
    worker-process transcript; each is appended (re-sequenced) to every
    installed capture via :meth:`WireCapture.append`, preserving the
    shipped order.  Returns the number of messages merged; a no-op
    (returning 0) when no capture is installed.
    """
    if not _ACTIVE:
        return 0
    merged = 0
    for record in records:
        message = WireMessage.from_record(dict(record))
        for capture in _ACTIVE:
            capture.append(message)
        merged += 1
    return merged


@contextmanager
def capturing(
    capture: Optional[WireCapture] = None,
) -> Iterator[WireCapture]:
    """Scoped :func:`install`; yields the capture, uninstalls on exit."""
    if capture is None:  # explicit: an empty WireCapture is falsy (len 0)
        capture = WireCapture()
    install(capture)
    try:
        yield capture
    finally:
        uninstall(capture)
