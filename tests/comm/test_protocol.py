"""Tests for repro.comm.protocol."""

import pytest

from repro import obs
from repro.comm.protocol import BitLedger
from repro.errors import ProtocolError
from repro.obs.sink import ListSink


class TestBitLedger:
    def test_accumulates(self):
        ledger = BitLedger()
        ledger.charge(2)
        ledger.charge(2)
        ledger.charge(0)
        assert ledger.total_bits == 4
        assert ledger.charges == 3

    def test_negative_rejected(self):
        with pytest.raises(ProtocolError):
            BitLedger().charge(-1)

    def test_merge(self):
        a = BitLedger(total_bits=4, charges=2)
        b = BitLedger(total_bits=6, charges=1)
        merged = a.merged_with(b)
        assert merged.total_bits == 10
        assert merged.charges == 3
        # Originals untouched.
        assert a.total_bits == 4

    def test_add_operator(self):
        a = BitLedger(total_bits=4, charges=2)
        b = BitLedger(total_bits=6, charges=1)
        assert a + b == BitLedger(total_bits=10, charges=3)
        # __add__ leaves its operands alone, like merged_with.
        assert a.total_bits == 4 and b.total_bits == 6

    def test_add_rejects_arbitrary_types(self):
        with pytest.raises(TypeError):
            BitLedger() + "nope"

    def test_sum_builtin(self):
        ledgers = [
            BitLedger(total_bits=1, charges=1),
            BitLedger(total_bits=2, charges=1),
            BitLedger(total_bits=3, charges=2),
        ]
        total = sum(ledgers)
        assert total == BitLedger(total_bits=6, charges=4)

    def test_equality(self):
        assert BitLedger(total_bits=2, charges=1) == BitLedger(
            total_bits=2, charges=1
        )
        assert BitLedger() != BitLedger(total_bits=1, charges=1)

    def test_counts_without_telemetry(self):
        assert not obs.is_enabled()
        ledger = BitLedger()
        ledger.charge(8)
        assert ledger.total_bits == 8  # local meter is always on


class TestObsRouting:
    def test_ledger_mirrors_to_global_registry(self):
        obs.reset_metrics()
        ledger = BitLedger()
        with obs.enabled(ListSink()):
            ledger.charge(5)
            ledger.charge(3)
        snap = obs.snapshot()
        obs.reset_metrics()
        assert snap["comm.wire_bits"] == 8
        assert snap["comm.wire_charges"] == 2
        assert ledger.total_bits == 8
