"""Wire-transcript bit totals exactly equal the existing meters.

The capture layer is only trustworthy if the transcript's summed bits
are the *same* numbers the PR 2 counters and result objects already
report: the sketch-size histogram for the one-way games, the
sketch/query counters for the distributed hybrid, and the BitLedger for
the local-query reduction.  Every comparison here is exact equality —
a transcript that "roughly" reconciles is a broken transcript.
"""

import pytest

from repro import obs
from repro.obs import capture as obs_capture
from repro.obs.capture import capturing


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable()
    obs.reset_metrics()
    obs_capture._ACTIVE.clear()
    yield
    obs.disable()
    obs.STATE.sink = None
    obs.reset_metrics()
    obs_capture._ACTIVE.clear()


class TestForEachReconciliation:
    def test_capture_bits_equal_sketch_histogram(self):
        from repro.foreach_lb.game import run_index_game
        from repro.foreach_lb.params import ForEachParams
        from repro.sketch.exact import ExactCutSketch

        rounds = 4
        with obs.enabled():
            with capturing() as cap:
                result = run_index_game(
                    ForEachParams(inv_eps=4, sqrt_beta=1, num_groups=2),
                    lambda g, r: ExactCutSketch(g),
                    rounds=rounds,
                    rng=3,
                )
        hist = obs.REGISTRY.histogram("sketch.size_bits")
        # One size_bits() observation per round: the game must not call
        # it twice to price the wire message.
        assert hist.count == rounds
        assert cap.total_bits == hist.sum
        assert cap.total_bits == pytest.approx(
            result.mean_sketch_bits * rounds
        )
        assert cap.bits_by_kind()["foreach.sketch"] == cap.total_bits
        assert cap.bits_by_kind()["foreach.answer"] == 0
        # The global mirror agrees with the transcript message count.
        assert obs.REGISTRY.counter("wire.messages").value == len(cap)
        assert obs.REGISTRY.counter("wire.bits").value == cap.total_bits

    def test_every_sketch_message_is_alice_to_bob(self):
        from repro.foreach_lb.game import run_index_game
        from repro.foreach_lb.params import ForEachParams
        from repro.sketch.exact import ExactCutSketch

        with obs.enabled():
            with capturing() as cap:
                run_index_game(
                    ForEachParams(inv_eps=4, sqrt_beta=1),
                    lambda g, r: ExactCutSketch(g),
                    rounds=2,
                    rng=0,
                )
        sketches = [m for m in cap.messages if m.kind == "foreach.sketch"]
        assert all(
            (m.sender, m.receiver) == ("alice", "bob") for m in sketches
        )
        assert cap.bits_by_party()["alice"]["sent"] == cap.total_bits


class TestForAllReconciliation:
    def test_capture_bits_equal_sketch_histogram(self):
        from repro.forall_lb.game import run_gap_hamming_game
        from repro.forall_lb.params import ForAllParams

        from repro.sketch.exact import ExactCutSketch

        rounds = 3
        with obs.enabled():
            with capturing() as cap:
                result = run_gap_hamming_game(
                    ForAllParams(inv_eps_sq=4, beta=1, num_groups=2),
                    lambda g, r: ExactCutSketch(g),
                    rounds=rounds,
                    rng=5,
                )
        hist = obs.REGISTRY.histogram("sketch.size_bits")
        assert hist.count == rounds
        assert cap.total_bits == hist.sum
        assert cap.total_bits == pytest.approx(
            result.mean_sketch_bits * rounds
        )
        assert cap.bits_by_kind()["forall.decision"] == 0


class TestDistributedReconciliation:
    def test_capture_bits_equal_coordinator_report(self):
        from repro.distributed.coordinator import distributed_min_cut
        from repro.distributed.server import partition_edges
        from repro.graphs.ugraph import UGraph

        g = UGraph(nodes=range(12))
        for u in range(12):
            for v in range(u + 1, 12):
                g.add_edge(u, v, 1.0)
        servers = partition_edges(g, 2, rng=1)
        with obs.enabled():
            with capturing() as cap:
                result = distributed_min_cut(
                    servers, epsilon=0.3, strategy="hybrid", rng=7,
                    contraction_attempts=40, sampling_constant=0.3,
                )
        by_kind = cap.bits_by_kind()
        # Shipped sketches and query responses match the result object
        # and the PR 2 counters bit for bit.
        assert by_kind["distributed.ship"] == result.sketch_bits
        assert by_kind["distributed.response"] == result.query_bits
        assert by_kind["distributed.query"] == 0
        assert cap.total_bits == result.total_bits
        snap = obs.snapshot()
        assert by_kind["distributed.ship"] == snap["distributed.sketch_bits"]
        assert by_kind["distributed.response"] == snap["distributed.query_bits"]
        # One query + one response per (candidate, server) round trip.
        trips = int(snap["distributed.round_trips"])
        assert len([m for m in cap.messages
                    if m.kind == "distributed.response"]) == trips

    def test_forall_only_strategy_ships_only(self):
        from repro.distributed.coordinator import distributed_min_cut
        from repro.distributed.server import partition_edges
        from repro.graphs.ugraph import UGraph

        g = UGraph(nodes=range(10))
        for u in range(10):
            for v in range(u + 1, 10):
                g.add_edge(u, v, 1.0)
        servers = partition_edges(g, 2, rng=2)
        with obs.enabled():
            with capturing() as cap:
                result = distributed_min_cut(
                    servers, epsilon=0.4, strategy="forall_only", rng=3,
                    sampling_constant=0.3,
                )
        kinds = set(cap.bits_by_kind())
        assert kinds == {"distributed.ship"}
        assert cap.total_bits == result.sketch_bits == result.total_bits


class TestLocalQueryReconciliation:
    def test_capture_bits_equal_ledger_and_comm_counters(self):
        from repro.comm.twosum import sample_twosum_instance
        from repro.localquery.mincut_query import estimate_min_cut
        from repro.localquery.reduction import solve_twosum_via_mincut

        import numpy as np

        rng = np.random.default_rng(9)
        instance = sample_twosum_instance(
            num_pairs=4, length=9, alpha=1,
            intersecting_fraction=0.25, rng=rng,
        )
        with obs.enabled():
            with capturing() as cap:
                result = solve_twosum_via_mincut(
                    instance,
                    lambda oracle, gen: estimate_min_cut(
                        oracle, 0.5, rng=gen
                    ).value,
                    rng=rng,
                )
        # Transcript bits == BitLedger total == comm.* counter mirror.
        assert cap.total_bits == result.bits_exchanged
        snap = obs.snapshot()
        assert cap.total_bits == snap["comm.wire_bits"]
        reveals = [m for m in cap.messages if m.kind == "localquery.reveal"]
        assert len(reveals) == snap["comm.wire_charges"]
        assert all(m.bits == 2 for m in reveals)
        # Every oracle query is on the wire, at zero cost, and the
        # transcript's query count matches the Theorem 1.3 meter.
        queries = [m for m in cap.messages if m.kind.startswith("oracle.")]
        assert len(queries) == result.queries
        assert all(m.bits == 0 for m in queries)


class TestBitLedgerWire:
    def test_charges_carry_party_names_and_kind(self):
        from repro.comm.protocol import BitLedger

        ledger = BitLedger(sender="coordinator", receiver="server-0")
        with obs.enabled():
            with capturing() as cap:
                ledger.charge(3, kind="test.charge", payload=(1, 2))
                ledger.charge(0)
        assert ledger.total_bits == 3
        assert ledger.charges == 2
        assert [m.kind for m in cap.messages] == [
            "test.charge", "ledger.charge"
        ]
        assert cap.messages[0].sender == "coordinator"
        assert cap.messages[0].receiver == "server-0"
        assert cap.total_bits == ledger.total_bits

    def test_merged_ledgers_do_not_re_record(self):
        from repro.comm.protocol import BitLedger

        a, b = BitLedger(), BitLedger()
        with obs.enabled():
            with capturing() as cap:
                a.charge(2)
                b.charge(4)
                merged = a + b
        assert merged.total_bits == 6
        # Merging is accounting, not communication: still two messages.
        assert len(cap) == 2
        assert cap.total_bits == 6
