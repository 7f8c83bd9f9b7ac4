"""Tests for measured-space observability (:mod:`repro.obs.memory`)."""

import time

import numpy as np
import pytest

from repro import obs
from repro.errors import ObsError
from repro.graphs.digraph import DiGraph
from repro.obs import bounds as obs_bounds
from repro.obs import memory
from repro.obs.bounds import BoundMonitor, SpaceBoundSpec
from repro.obs.exporters import prometheus_text
from repro.obs.live import LiveAggregator
from repro.obs.memory import (
    MemoryProfiler,
    deep_footprint,
    deep_sizeof,
    observe_footprint,
    profiling,
    read_rss,
    rss_bytes,
)
from repro.obs.sink import ListSink
from repro.obs.slo import SloEngine, SloError, parse_spec


@pytest.fixture(autouse=True)
def clean_memory_state():
    yield
    active = memory.active()
    if active is not None:
        active.stop()
    memory.unregister_space_bounds()


def _digraph(n=6):
    g = DiGraph(nodes=range(n))
    for i in range(n):
        g.add_edge(i, (i + 1) % n, 1.0)
        g.add_edge(i, (i + 2) % n, 0.5)
    return g


class TestRssReaders:
    def test_rss_bytes_positive(self):
        assert rss_bytes() > 0

    def test_read_rss_record_shape(self):
        info = read_rss()
        assert info["rss_bytes"] > 0
        assert info["hwm_bytes"] >= info["rss_bytes"] or info["hwm_bytes"] > 0
        assert info["source"] in ("procfs", "getrusage")


class TestDeepSizeof:
    def test_containers_recurse(self):
        flat = deep_sizeof([])
        nested = deep_sizeof([list(range(100)), {"a": "b" * 64}])
        assert nested > flat + 100 * 28  # at least the int payloads

    def test_shared_references_counted_once(self):
        shared = list(range(200))
        assert deep_sizeof([shared, shared]) < deep_sizeof(
            [shared, list(shared)]
        )

    def test_numpy_counts_data_payload(self):
        assert deep_sizeof(np.zeros(1000)) >= 8000

    def test_slots_objects_walk_attributes(self):
        class Slotted:
            __slots__ = ("payload",)

            def __init__(self):
                self.payload = list(range(500))

        assert deep_sizeof(Slotted()) > deep_sizeof(list(range(500)))


class TestDeepFootprint:
    def test_sketch_carries_bytes_per_bit(self):
        from repro.sketch.exact import ExactCutSketch

        sketch = ExactCutSketch(_digraph())
        record = deep_footprint(sketch)
        assert record["structure"] == "sketch"
        assert record["theoretical_bits"] == sketch.size_bits()
        assert record["bytes_per_bit"] == pytest.approx(
            record["measured_bytes"] / sketch.size_bits()
        )
        assert record["measured_bytes"] > 0

    def test_csr_snapshot_reports_array_bytes(self):
        csr = _digraph().freeze()
        record = deep_footprint(csr)
        assert record["structure"] == "csr_graph"
        assert record["array_bytes"] > 0
        assert record["measured_bytes"] >= record["array_bytes"]

    def test_plain_object_is_generic(self):
        record = deep_footprint(object(), label="x")
        assert record["structure"] == "object"
        assert record["label"] == "x"


class TestMemoryProfiler:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ObsError, match="mode"):
            MemoryProfiler(mode="deep")

    def test_invalid_interval_rejected(self):
        with pytest.raises(ObsError, match="interval"):
            MemoryProfiler(interval=0)

    def test_double_start_rejected(self):
        with profiling() as profiler:
            with pytest.raises(ObsError, match="already running"):
                profiler.start()

    def test_second_active_profiler_rejected(self):
        with profiling():
            with pytest.raises(ObsError, match="already active"):
                MemoryProfiler().start()

    def test_stop_is_idempotent(self):
        profiler = MemoryProfiler().start()
        profiler.stop()
        profiler.stop()
        assert memory.active() is None

    def test_rss_sampler_accumulates(self):
        profiler = MemoryProfiler(interval=0.01).start()
        time.sleep(0.08)
        profiler.stop()
        assert profiler.rss_samples >= 3
        assert profiler.rss_peak >= profiler.rss_current > 0

    def test_trace_mode_attributes_allocation_to_span(self):
        obs.enable()
        with profiling(mode=memory.TRACE, interval=5.0) as profiler:
            with obs.span("outer"):
                with obs.span("inner"):
                    blob = bytearray(4_000_000)
                del blob
        by_span = {row["span"]: row for row in profiler.records()}
        assert by_span["outer/inner"]["peak_bytes"] >= 4_000_000
        assert by_span["outer/inner"]["net_bytes"] >= 4_000_000
        # The free after "inner" closed lands on the parent interval.
        assert by_span["outer"]["net_bytes"] < 0

    def test_records_sorted_by_peak(self):
        profiler = MemoryProfiler(mode=memory.TRACE)
        profiler._spans = {
            "a": [1, 10, 100],
            "b": [1, 10, 900],
            "c": [1, 10, 500],
        }
        assert [r["span"] for r in profiler.records()] == ["b", "c", "a"]

    def test_emit_events_writes_span_and_rss_records(self):
        obs.enable()
        sink = ListSink()
        obs.STATE.sink = sink
        with profiling(mode=memory.TRACE, interval=5.0) as profiler:
            with obs.span("work"):
                pass
        emitted = profiler.emit_events()
        kinds = [
            r.get("kind") for r in sink.records if r.get("event") == "memory"
        ]
        assert kinds.count("rss") == 1
        assert kinds.count("span") == emitted - 1
        assert obs.REGISTRY.gauge("memory.rss_bytes").value > 0


class TestObserveFootprint:
    def test_noop_without_active_profiler(self):
        assert observe_footprint(_digraph().freeze()) is None

    def test_dedup_measures_each_object_once(self):
        from repro.sketch.exact import ExactCutSketch

        sketch = ExactCutSketch(_digraph())
        with profiling() as profiler:
            assert observe_footprint(sketch) is not None
            assert observe_footprint(sketch) is None
            assert len(profiler.footprints) == 1

    def test_non_weakrefable_objects_measured_every_time(self):
        # CSR snapshots use __slots__ without __weakref__: the dedup set
        # cannot hold them, so each call measures afresh (construction
        # hooks only fire once per object, so no double counting).
        csr = _digraph().freeze()
        with profiling() as profiler:
            assert observe_footprint(csr) is not None
            assert observe_footprint(csr) is not None
            assert len(profiler.footprints) == 2

    def test_metric_defaults_by_structure(self):
        from repro.sketch.exact import ExactCutSketch

        sketch = ExactCutSketch(_digraph())
        with profiling():
            record = observe_footprint(sketch)
            graph_record = observe_footprint(
                _digraph().freeze(), metric="memory.graph_bytes"
            )
        assert record["metric"] == "memory.sketch_bytes"
        assert graph_record["metric"] == "memory.graph_bytes"

    def test_csr_construction_hook_fires(self):
        obs.enable()
        with profiling() as profiler:
            _digraph().freeze()
        assert any(
            f["structure"] == "csr_graph" for f in profiler.footprints
        )

    def test_sketch_size_bits_hook_carries_ratio(self):
        from repro.sketch.exact import ExactCutSketch

        obs.enable()
        with profiling() as profiler:
            sketch = ExactCutSketch(_digraph())
            bits = sketch.size_bits()
        rows = [f for f in profiler.footprints if f["structure"] == "sketch"]
        assert rows and rows[0]["theoretical_bits"] == bits
        assert rows[0]["bytes_per_bit"] > 0


class TestSpaceBounds:
    def test_space_spec_scales_bytes_to_bits(self):
        spec = SpaceBoundSpec(
            name="tmp.space_bytes",
            theorem="T",
            column="bytes",
            direction="upper",
            predicted=lambda p: 10_000.0,
            formula="const",
            slack=1.0,
            sweep=None,
        )
        obs_bounds.register(spec, replace=True)
        try:
            monitor = BoundMonitor()
            check = monitor.record("tmp.space_bytes", 100.0, bytes=100.0)
            assert check.measured == pytest.approx(800.0)  # bytes * 8
            assert check.detail["measured_raw"] == pytest.approx(100.0)
            assert check.detail["scale"] == pytest.approx(8.0)
            assert check.status == "pass"
        finally:
            obs_bounds.unregister("tmp.space_bytes")

    def test_register_space_bounds_is_idempotent(self):
        memory.register_space_bounds()
        memory.register_space_bounds()
        names = [s.name for s in obs_bounds.registered_specs()]
        for spec in memory.SPACE_SPECS:
            assert names.count(spec.name) == 1
        memory.unregister_space_bounds()
        assert "thm11.space_bytes" not in [
            s.name for s in obs_bounds.registered_specs()
        ]

    def test_thm13_envelope_grows_with_edges(self):
        small = memory._thm13_space_envelope({"n": 16, "m": 40})
        large = memory._thm13_space_envelope({"n": 16, "m": 80})
        assert large == pytest.approx(2 * small)


def _play_index_game(jobs):
    from repro.foreach_lb.game import run_index_game
    from repro.foreach_lb.params import ForEachParams
    from repro.sketch.exact import ExactCutSketch

    params = ForEachParams(inv_eps=4, sqrt_beta=1, num_groups=2)
    return run_index_game(
        params, lambda g, r: ExactCutSketch(g), rounds=3, rng=4, jobs=jobs
    )


def _play_gap_hamming_game(jobs):
    from repro.forall_lb.game import run_gap_hamming_game
    from repro.forall_lb.params import ForAllParams
    from repro.sketch.exact import ExactCutSketch

    params = ForAllParams(inv_eps_sq=4, beta=1, num_groups=2)
    return run_gap_hamming_game(
        params, lambda g, r: ExactCutSketch(g), rounds=3, rng=4, jobs=jobs
    )


@pytest.mark.parametrize("play", [_play_index_game, _play_gap_hamming_game])
class TestGameSketchBytes:
    def test_mean_equals_the_size_bits_footprints(self, play):
        with obs.enabled(ListSink()), profiling() as profiler:
            result = play(jobs=1)
        measured = [
            f["measured_bytes"]
            for f in profiler.footprints
            if f["structure"] == "sketch"
        ]
        assert len(measured) == 3  # one sketch per round
        assert result.mean_sketch_bytes == sum(measured) / len(measured)

    def test_none_without_a_profiler(self, play):
        assert play(jobs=1).mean_sketch_bytes is None

    def test_equal_at_jobs_1_and_2(self, play):
        from repro.parallel import fork_available

        if not fork_available():
            pytest.skip("platform lacks the fork start method")
        with profiling():
            serial = play(jobs=1).mean_sketch_bytes
            parallel = play(jobs=2).mean_sketch_bytes
        assert serial is not None and serial == parallel


class TestSloMemoryRules:
    def test_parse_rss_clause_default_op(self):
        (rule,) = parse_spec("rss:1000000")
        assert rule.kind == "rss"
        assert rule.target == "*"
        assert rule.op == "<=" and rule.threshold == 1_000_000.0

    def test_parse_rss_clause_explicit_op(self):
        (rule,) = parse_spec("rss:>=5")
        assert rule.op == ">=" and rule.threshold == 5.0

    def test_parse_mem_clause_with_span_target(self):
        (rule,) = parse_spec("mem:experiment.e1<=4096")
        assert rule.kind == "mem"
        assert rule.target == "experiment.e1"
        assert rule.threshold == 4096.0

    def test_parse_mem_clause_bare_bytes(self):
        (rule,) = parse_spec("mem:2048")
        assert rule.target == "*" and rule.threshold == 2048.0

    def test_parse_mem_garbage_raises(self):
        with pytest.raises(SloError):
            parse_spec("mem:")

    def test_rss_rule_breaches_on_peak(self):
        aggregator = LiveAggregator()
        engine = SloEngine(parse_spec("rss:<=1000"), aggregator=aggregator)
        aggregator.on_record(
            {"event": "memory", "kind": "rss", "rss_bytes": 5_000.0,
             "rss_peak_bytes": 9_000.0, "ts": 100.0}
        )
        breaches = engine.evaluate(now=100.0)
        assert len(breaches) == 1
        assert breaches[0]["subject"] == "process"
        assert breaches[0]["value"] == pytest.approx(9_000.0)

    def test_rss_rule_sees_worker_heartbeats(self):
        aggregator = LiveAggregator()
        engine = SloEngine(parse_spec("rss:<=1000"), aggregator=aggregator)
        aggregator.on_record(
            {"event": "heartbeat", "worker": 7, "phase": "chunk",
             "rss": 123_456.0, "ts": 100.0}
        )
        (breach,) = engine.evaluate(now=100.0)
        assert breach["value"] == pytest.approx(123_456.0)

    def test_mem_rule_matches_span_target(self):
        aggregator = LiveAggregator()
        engine = SloEngine(
            parse_spec("mem:experiment.e1<=1000"), aggregator=aggregator
        )
        aggregator.on_record(
            {"event": "memory", "kind": "span", "span": "experiment.e1",
             "boundaries": 2, "net_bytes": 10, "peak_bytes": 4_000.0,
             "ts": 100.0}
        )
        (breach,) = engine.evaluate(now=100.0)
        assert breach["subject"] == "span:experiment.e1"
        assert breach["value"] == pytest.approx(4_000.0)

    def test_mem_rule_under_ceiling_is_quiet(self):
        aggregator = LiveAggregator()
        engine = SloEngine(parse_spec("mem:1000000"), aggregator=aggregator)
        aggregator.on_record(
            {"event": "memory", "kind": "span", "span": "a",
             "boundaries": 1, "net_bytes": 1, "peak_bytes": 10.0,
             "ts": 100.0}
        )
        assert engine.evaluate(now=100.0) == []


class TestPrometheusMemoryGauges:
    def test_exposition_carries_memory_gauges(self):
        aggregator = LiveAggregator()
        aggregator.on_record(
            {"event": "memory", "kind": "rss", "rss_bytes": 1_000.0,
             "rss_peak_bytes": 2_000.0, "ts": 100.0}
        )
        aggregator.on_record(
            {"event": "heartbeat", "worker": 11, "phase": "chunk",
             "rss": 1_500.0, "ts": 100.0}
        )
        aggregator.on_record(
            {"event": "memory", "kind": "span", "span": "experiment.e1",
             "boundaries": 1, "net_bytes": 5, "peak_bytes": 640.0,
             "ts": 100.0}
        )
        aggregator.on_record(
            {"event": "memory", "kind": "footprint", "structure": "sketch",
             "type": "ExactCutSketch", "measured_bytes": 4_096.0,
             "ts": 100.0}
        )
        text = prometheus_text(aggregator=aggregator)
        assert "repro_memory_max_rss_bytes 2000" in text
        assert 'repro_memory_worker_rss_bytes{pid="11"} 1500' in text
        # Label values ride the metric-name sanitizer (the spec= label
        # precedent): dots and slashes become underscores.
        assert 'repro_memory_span_peak_bytes{span="experiment_e1"} 640' in text
        assert (
            'repro_memory_footprint_bytes'
            '{structure="sketch",type="ExactCutSketch"} 4096' in text
        )
