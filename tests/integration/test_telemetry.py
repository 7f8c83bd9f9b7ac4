"""Telemetry cross-checks: recorded metrics match reported resources.

The observability layer is only trustworthy if the numbers it records
are the *same* numbers the library already reports through its result
objects (mean sketch bits, query counts, communication bits).  Each test
runs one pipeline with telemetry on and reconciles the global registry
against the decoder-/coordinator-reported values.
"""

import pytest

from repro import obs
from repro.obs.sink import ListSink


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable()
    obs.reset_metrics()
    yield
    obs.disable()
    obs.STATE.sink = None
    obs.reset_metrics()


class TestForEachGameTelemetry:
    def test_sketch_bits_histogram_matches_game_report(self):
        from repro.foreach_lb.game import run_index_game
        from repro.foreach_lb.params import ForEachParams
        from repro.sketch.noisy import NoisyForEachSketch

        params = ForEachParams(inv_eps=4, sqrt_beta=1, num_groups=2)
        rounds = 5
        with obs.enabled(ListSink()) as sink:
            result = run_index_game(
                params,
                lambda g, r: NoisyForEachSketch(g, epsilon=0.2, rng=r),
                rounds=rounds,
                rng=3,
            )
        hist = obs.REGISTRY.histogram("sketch.size_bits")
        assert hist.count == rounds  # one size_bits() call per round
        assert hist.sum == pytest.approx(result.mean_sketch_bits * rounds)
        assert obs.REGISTRY.counter("game.foreach.rounds").value == rounds
        round_spans = [
            r for r in sink.of_kind("span") if r["name"] == "foreach.round"
        ]
        assert len(round_spans) == rounds
        # Every round nests an encode and a decode span.
        assert sum(
            1 for r in sink.of_kind("span") if r["path"].endswith("/foreach.decode")
        ) == rounds

    def test_sketch_query_counter_is_positive(self):
        from repro.foreach_lb.game import run_index_game
        from repro.foreach_lb.params import ForEachParams
        from repro.sketch.exact import ExactCutSketch

        params = ForEachParams(inv_eps=4, sqrt_beta=1, num_groups=2)
        with obs.enabled(ListSink()):
            run_index_game(params, lambda g, r: ExactCutSketch(g), rounds=2, rng=0)
        assert obs.REGISTRY.counter("sketch.queries").value > 0


class TestEncodedSnapshotTelemetry:
    """One traced round records what it did when the sketch froze a
    written dict graph: one ``csr.freeze.miss`` and one
    ``memory.graph_bytes`` footprint per snapshot (the decoder's
    skeleton, then the encoded graph), never a ``csr.freeze.hit``, and
    footprints that measure what ``CSRGraph.from_digraph`` of the
    written graphs measures."""

    @staticmethod
    def _traced_round(play):
        from repro.obs.memory import profiling

        with obs.enabled(ListSink()):
            with profiling(interval=5.0) as profiler:
                play()
        graph_bytes = [
            record["measured_bytes"]
            for record in profiler.footprints
            if record["metric"] == "memory.graph_bytes"
        ]
        return obs.snapshot(), graph_bytes

    @staticmethod
    def _assert_counts(snap):
        assert snap["csr.freeze.miss"] == 2
        assert snap.get("csr.freeze.hit", 0) == 0
        assert snap["memory.graph_bytes.count"] == 2
        assert snap["memory.sketch_bytes.count"] == 1

    def test_index_round(self):
        from repro.foreach_lb.encoder import ForEachEncoder
        from repro.foreach_lb.game import run_index_game
        from repro.foreach_lb.params import ForEachParams
        from repro.graphs.csr import CSRGraph
        from repro.obs.memory import deep_sizeof
        from repro.sketch.exact import ExactCutSketch
        from repro.utils.bitstrings import random_signstring

        params = ForEachParams(inv_eps=4, sqrt_beta=2, num_groups=3)
        snap, graph_bytes = self._traced_round(
            lambda: run_index_game(
                params, lambda g, _r: ExactCutSketch(g), rounds=1, rng=3
            )
        )
        self._assert_counts(snap)
        assert snap["sketch.queries"] == 4
        encoder = ForEachEncoder(params)
        s = random_signstring(params.string_length, rng=0)
        written = encoder.encode(s).graph.copy()
        assert graph_bytes == [
            deep_sizeof(CSRGraph.from_digraph(encoder.skeleton())),
            deep_sizeof(CSRGraph.from_digraph(written)),
        ]

    def test_gap_hamming_round(self):
        from repro.comm.gap_hamming import sample_gap_hamming_instance
        from repro.forall_lb.encoder import ForAllEncoder
        from repro.forall_lb.game import run_gap_hamming_game
        from repro.forall_lb.params import ForAllParams
        from repro.graphs.csr import CSRGraph
        from repro.obs.memory import deep_sizeof
        from repro.sketch.exact import ExactCutSketch

        params = ForAllParams(inv_eps_sq=4, beta=2, num_groups=3)
        snap, graph_bytes = self._traced_round(
            lambda: run_gap_hamming_game(
                params, lambda g, _r: ExactCutSketch(g), rounds=1, rng=3
            )
        )
        self._assert_counts(snap)
        instance = sample_gap_hamming_instance(
            num_strings=params.num_strings, length=params.string_length, rng=0
        )
        encoder = ForAllEncoder(params)
        written = encoder.encode(instance.strings).graph.copy()
        skeleton = encoder.skeleton().copy()
        # The encoded graph's snapshot comes first: the decoder is built
        # after the sketch.
        assert graph_bytes == [
            deep_sizeof(CSRGraph.from_digraph(written)),
            deep_sizeof(CSRGraph.from_digraph(skeleton)),
        ]


class TestOracleTelemetry:
    def test_global_mirror_matches_local_meter(self):
        from repro.graphs.generators import planted_min_cut_ugraph
        from repro.localquery.oracle import GraphOracle
        from repro.localquery.verify_guess import fetch_degrees, verify_guess

        graph, k = planted_min_cut_ugraph(30, 15, rng=20)
        oracle = GraphOracle(graph)
        with obs.enabled(ListSink()):
            degrees = fetch_degrees(oracle)
            result = verify_guess(
                oracle, degrees, t=float(k), eps=0.5, rng=0, constant=0.5
            )
        snap = obs.snapshot()
        assert snap["oracle.query.degree"] == oracle.counter.degree_queries
        assert snap["oracle.query.neighbor"] == oracle.counter.neighbor_queries
        assert result.neighbor_queries == oracle.counter.neighbor_queries


class TestDistributedTelemetry:
    def test_counters_match_coordinator_report(self):
        from repro.distributed.coordinator import distributed_min_cut
        from repro.distributed.server import partition_edges
        from repro.graphs.ugraph import UGraph

        g = UGraph(nodes=range(12))
        for u in range(12):
            for v in range(u + 1, 12):
                g.add_edge(u, v, 1.0)
        servers = partition_edges(g, 2, rng=1)
        with obs.enabled(ListSink()) as sink:
            result = distributed_min_cut(
                servers, epsilon=0.3, strategy="hybrid", rng=7,
                contraction_attempts=40, sampling_constant=0.3,
            )
        snap = obs.snapshot()
        assert snap["distributed.sketch_bits"] == result.sketch_bits
        assert snap["distributed.query_bits"] == result.query_bits
        # One round trip per (candidate, server) pair, priced in bits.
        assert snap["distributed.round_trips"] == (
            result.candidates_scored * len(servers)
        )
        assert snap["distributed.response_bits"] == result.query_bits
        span_names = {r["name"] for r in sink.of_kind("span")}
        assert {"distributed.ship", "distributed.candidates",
                "distributed.rescore"} <= span_names

    def test_forall_only_counts_sketch_bits(self):
        from repro.distributed.coordinator import distributed_min_cut
        from repro.distributed.server import partition_edges
        from repro.graphs.ugraph import UGraph

        g = UGraph(nodes=range(10))
        for u in range(10):
            for v in range(u + 1, 10):
                g.add_edge(u, v, 1.0)
        servers = partition_edges(g, 2, rng=2)
        with obs.enabled(ListSink()):
            result = distributed_min_cut(
                servers, epsilon=0.4, strategy="forall_only", rng=3,
                sampling_constant=0.3,
            )
        snap = obs.snapshot()
        assert snap["distributed.sketch_bits"] == result.sketch_bits
        assert snap.get("distributed.query_bits", 0) == 0


class TestCsrTelemetry:
    def test_kernel_calls_and_freeze_cache(self):
        from repro.graphs.generators import random_balanced_digraph

        g = random_balanced_digraph(24, beta=2.0, density=0.4, rng=5)
        with obs.enabled(ListSink()):
            csr = g.freeze()       # miss: first snapshot build
            g.freeze()             # hit: cached
            sides = [frozenset(list(g.nodes())[:8])] * 4
            member = csr.membership_matrix(sides)
            csr.cut_weights(member)
        snap = obs.snapshot()
        assert snap["csr.freeze.miss"] == 1
        assert snap["csr.freeze.hit"] == 1
        assert snap["csr.cut_weights.calls"] == 1
        assert snap["csr.cut_weights.rows"] == 4
        assert snap["csr.batch_rows.count"] == 1
        assert snap["csr.batch_rows.sum"] == 4

    def test_maxflow_phases_observed(self):
        from repro.graphs.digraph import DiGraph
        from repro.graphs.maxflow import max_flow

        g = DiGraph(edges=[("s", "a", 2.0), ("a", "t", 1.0), ("s", "t", 1.0)])
        with obs.enabled(ListSink()):
            result = max_flow(g, "s", "t")
        assert result.value == pytest.approx(2.0)
        snap = obs.snapshot()
        assert snap["maxflow.calls.csr"] == 1
        assert snap["csr.maxflow.calls"] == 1
        assert snap["csr.maxflow.phases.count"] == 1
        assert snap["csr.maxflow.phases.sum"] >= 1
