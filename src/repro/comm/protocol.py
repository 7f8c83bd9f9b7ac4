"""Bit accounting for the communication reductions.

All three lower bounds in the paper are proved by reduction to a
communication problem, and each is priced by the bits that cross the
wire.  The one-way games measure Alice's message through the sketch's
own ``size_bits()``; for the local-query reduction (Lemma 5.6) the
conversation is not one-way — Alice and Bob exchange 2 bits per
simulated oracle query — so :class:`BitLedger` tracks a running total
that both directions append to.
"""

from __future__ import annotations

from typing import Any, Collection

from repro.errors import ProtocolError
from repro.obs import STATE as _OBS
from repro.obs import capture as _capture
from repro.obs import count as _obs_count


class BitLedger:
    """Running bit count for interactive (two-way) simulations.

    Lemma 5.6 simulates each local query with at most 2 bits of
    communication; the ledger records each charge so the reduction can
    report total communication alongside total queries.

    Backed by a private obs :class:`~repro.obs.metrics.MetricsRegistry`
    (always on — wire bits are the measured quantity of the reductions);
    each charge is mirrored into the global ``comm.wire_bits`` /
    ``comm.wire_charges`` counters when telemetry is enabled.
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
