"""One-way communication protocols with bit accounting.

All three lower bounds in the paper are proved by reduction to a one-way
communication problem: Alice holds an input, sends one message, and Bob
must answer.  This module gives the executable shape of that game:

* :class:`Message` — an immutable byte payload whose *bit* length is the
  quantity the lower bounds measure;
* :class:`OneWayProtocol` — the Alice/Bob interface;
* :func:`run_protocol` — drives one round and returns the answer plus the
  exact message size.

For the local-query reduction (Lemma 5.6) the conversation is not one-way
— Alice and Bob exchange 2 bits per simulated oracle query — so
:class:`BitLedger` tracks a running total that both directions append to.
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Collection, Generic, TypeVar

from repro.errors import ProtocolError
from repro.obs import STATE as _OBS
from repro.obs import capture as _capture
from repro.obs import count as _obs_count
from repro.obs import span as _obs_span

AliceInput = TypeVar("AliceInput")
BobInput = TypeVar("BobInput")
Answer = TypeVar("Answer")


@dataclass(frozen=True)
class Message:
    """A one-shot message from Alice to Bob."""

    payload: bytes

    @property
    def bits(self) -> int:
        """Size of the message in bits — the lower bounds' currency."""
        return 8 * len(self.payload)

    @staticmethod
    def from_object(obj: Any) -> "Message":
        """Serialize an arbitrary object.

        Pickle is a loose upper bound on the information content; the
        sketch layer provides tighter, purpose-built serializers where
        the byte count matters to an experiment.
        """
        return Message(payload=pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    def to_object(self) -> Any:
        """Inverse of :meth:`from_object`."""
        return pickle.loads(self.payload)


class OneWayProtocol(ABC, Generic[AliceInput, BobInput, Answer]):
    """Alice computes one message; Bob answers from it and his input."""

    @abstractmethod
    def alice(self, alice_input: AliceInput) -> Message:
        """Alice's side: compress her input into a single message."""

    @abstractmethod
    def bob(self, message: Message, bob_input: BobInput) -> Answer:
        """Bob's side: answer his query given only Alice's message."""


@dataclass
class ProtocolRun(Generic[Answer]):
    """Outcome of one protocol execution."""

    answer: Answer
    message_bits: int


def run_protocol(
    protocol: OneWayProtocol[AliceInput, BobInput, Answer],
    alice_input: AliceInput,
    bob_input: BobInput,
) -> ProtocolRun[Answer]:
    """Run one round of a one-way protocol, accounting message size.

    The message size lands in the ``comm.message_bits`` counter (and the
    round in ``comm.messages``) when telemetry is enabled, under the
    same namespace the ledgers and sketch sizes report to.
    """
    with _obs_span("comm.run_protocol", protocol=type(protocol).__name__):
        message = protocol.alice(alice_input)
        if not isinstance(message, Message):
            raise ProtocolError("alice() must return a Message")
        if _OBS.enabled:
            _obs_count("comm.messages")
            _obs_count("comm.message_bits", message.bits)
            _capture.record(
                "alice", "bob", "oneway.message", message.bits,
                payload=message.payload,
            )
        answer = protocol.bob(message, bob_input)
    return ProtocolRun(answer=answer, message_bits=message.bits)


class BitLedger:
    """Running bit count for interactive (two-way) simulations.

    Lemma 5.6 simulates each local query with at most 2 bits of
    communication; the ledger records each charge so the reduction can
    report total communication alongside total queries.

    Backed by a private obs :class:`~repro.obs.metrics.MetricsRegistry`
    (always on — wire bits are the measured quantity of the reductions);
    each charge is mirrored into the global ``comm.wire_bits`` /
    ``comm.wire_charges`` counters when telemetry is enabled, the same
    namespace ``run_protocol`` and ``size_bits()`` report under.
    """

    __slots__ = ("registry", "_bits", "_charges", "sender", "receiver")

    def __init__(
        self,
        total_bits: int = 0,
        charges: int = 0,
        sender: str = "alice",
        receiver: str = "bob",
    ):
        from repro.obs.metrics import MetricsRegistry

        self.registry = MetricsRegistry()
        self._bits = self.registry.counter("comm.wire_bits")
        self._charges = self.registry.counter("comm.wire_charges")
        self._bits.inc(total_bits)
        self._charges.inc(charges)
        self.sender = sender
        self.receiver = receiver

    @property
    def total_bits(self) -> int:
        """Bits transferred so far (both directions)."""
        return self._bits.value

    @property
    def charges(self) -> int:
        """Number of recorded transfers."""
        return self._charges.value

    def charge(
        self, bits: int, kind: str = "ledger.charge", payload: Any = None
    ) -> None:
        """Record a transfer of ``bits`` bits (either direction).

        ``kind``/``payload`` only label the wire-capture event (e.g. the
        local-query reduction tags each 2-bit exchange with the revealed
        index pair); accounting is unchanged.
        """
        if bits < 0:
            raise ProtocolError("cannot charge negative bits")
        self._bits.inc(bits)
        self._charges.inc()
        if _OBS.enabled:
            _obs_count("comm.wire_bits", bits)
            _obs_count("comm.wire_charges")
            _capture.record(
                self.sender, self.receiver, kind, bits, payload=payload
            )

    def charge_many(
        self, bits: int, kind: str, payloads: Collection[Any]
    ) -> None:
        """One :meth:`charge` of ``bits`` bits per entry of ``payloads``.

        With telemetry off the tallies move once for the whole batch;
        with it on, each transfer is still its own wire event, in
        ``payloads``' iteration order.
        """
        if _OBS.enabled:
            for payload in payloads:
                self.charge(bits, kind=kind, payload=payload)
            return
        if bits < 0:
            raise ProtocolError("cannot charge negative bits")
        self._bits.inc(bits * len(payloads))
        self._charges.inc(len(payloads))

    def merged_with(self, other: "BitLedger") -> "BitLedger":
        """A new ledger combining two accounts."""
        return BitLedger(
            total_bits=self.total_bits + other.total_bits,
            charges=self.charges + other.charges,
        )

    def __add__(self, other) -> "BitLedger":
        """``a + b`` merges two ledgers; ``sum(ledgers)`` works too."""
        if isinstance(other, BitLedger):
            return self.merged_with(other)
        if other == 0:  # the implicit start value of sum()
            return self.merged_with(BitLedger())
        return NotImplemented

    __radd__ = __add__

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitLedger):
            return NotImplemented
        return (
            self.total_bits == other.total_bits
            and self.charges == other.charges
        )

    def __repr__(self) -> str:
        return (
            f"BitLedger(total_bits={self.total_bits}, "
            f"charges={self.charges})"
        )
