"""Tests for the declarative SLO rule registry and live engine."""

import json

import pytest

from repro import obs
from repro.obs import bounds as obs_bounds
from repro.obs import live
from repro.obs.bounds import BoundSpec
from repro.obs.live import LiveAggregator, LiveBus
from repro.obs.sink import ListSink
from repro.obs.slo import (
    DEFAULT_STALL_S,
    SloEngine,
    SloError,
    SloRule,
    default_rules,
    parse_spec,
)


class TestParseSpec:
    def test_metric_clause(self):
        (rule,) = parse_spec("metric:oracle.query.neighbor<=50000")
        assert rule.kind == "metric"
        assert rule.target == "oracle.query.neighbor"
        assert rule.op == "<=" and rule.threshold == 50000.0

    def test_span_clause_with_quantile(self):
        (rule,) = parse_spec("span:experiment.e3:p95<=2.5")
        assert rule.kind == "span"
        assert rule.target == "experiment.e3"
        assert rule.quantile == pytest.approx(0.95)
        assert rule.threshold == 2.5

    def test_bound_clause(self):
        (rule,) = parse_spec("bound:thm13.queries>=1.1")
        assert rule.kind == "bound"
        assert rule.target == "thm13.queries"
        assert rule.op == ">=" and rule.threshold == 1.1

    def test_stall_clause(self):
        (rule,) = parse_spec("stall:5")
        assert rule.kind == "stall" and rule.threshold == 5.0

    def test_multiple_clauses_semicolon_separated(self):
        rules = parse_spec("metric:a<=1;stall:9;span:b:p99<=0.5")
        assert [r.kind for r in rules] == ["metric", "stall", "span"]

    def test_empty_spec_is_default_rules(self):
        rules = parse_spec("")
        assert [r.describe() for r in rules] == [
            r.describe() for r in default_rules()
        ]

    def test_default_rules_cover_every_registered_bound(self):
        rules = default_rules()
        bound_targets = {r.target for r in rules if r.kind == "bound"}
        assert bound_targets == {
            spec.name for spec in obs_bounds.registered_specs()
        }
        stall = [r for r in rules if r.kind == "stall"]
        assert len(stall) == 1 and stall[0].threshold == DEFAULT_STALL_S

    def test_bound_wildcard_expands(self):
        rules = parse_spec("bound:*>=1.25")
        assert rules
        assert all(r.kind == "bound" and r.threshold == 1.25 for r in rules)
        assert all(r.target != "*" for r in rules)

    def test_json_rule_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"kind": "metric", "target": "a.b", "op": "<=", "threshold": 7},
            {"name": "lat", "kind": "span", "target": "e1", "op": "<=",
             "threshold": 1.0, "quantile": 0.5},
        ]))
        rules = parse_spec(str(path))
        assert rules[0].name == "rule0" and rules[0].threshold == 7
        assert rules[1].name == "lat" and rules[1].quantile == 0.5

    def test_json_rule_file_rejects_non_list(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("{}")
        with pytest.raises(SloError, match="JSON list"):
            parse_spec(str(path))

    @pytest.mark.parametrize("bad", [
        "nonsense",
        "widget:a<=1",
        "metric:a<1",
        "metric:a<=not_a_number",
        "span:e1<=1.0",  # no quantile
        "baseline:metric:comm.wire_bits<=1.10x@HEAD",  # unknown kind
    ])
    def test_malformed_clause_raises(self, bad):
        with pytest.raises(SloError):
            parse_spec(bad)

    def test_rule_validation(self):
        with pytest.raises(SloError, match="kind"):
            SloRule(name="r", kind="widget", target="t", op="<=", threshold=1)
        with pytest.raises(SloError, match="op"):
            SloRule(name="r", kind="metric", target="t", op="<", threshold=1)
        with pytest.raises(SloError, match="quantile"):
            SloRule(name="r", kind="span", target="t", op="<=", threshold=1,
                    quantile=1.5)
        with pytest.raises(SloError, match="kind"):
            SloRule(name="r", kind="baseline", target="t", op="<=",
                    threshold=1)


def _engine_on_bus(rules, **kwargs):
    bus = LiveBus()
    engine = SloEngine(rules, **kwargs).attach(bus)
    return bus, engine


class TestSloEngine:
    def test_metric_breach_on_tick(self):
        obs.STATE.enabled = True
        obs.count("slo.metric.test", 100)
        bus, engine = _engine_on_bus(parse_spec("metric:slo.metric.test<=10"))
        bus.publish({"event": "live.tick", "ts": 100.0})
        assert engine.breached
        ((key, record),) = engine.breaches.items()
        assert key[1] == "slo.metric.test"
        assert record["value"] == 100.0

    def test_metric_within_threshold_does_not_breach(self):
        obs.STATE.enabled = True
        obs.count("slo.metric.test", 5)
        bus, engine = _engine_on_bus(parse_spec("metric:slo.metric.test<=10"))
        bus.publish({"event": "live.tick", "ts": 100.0})
        assert not engine.breached

    def test_unobserved_metric_never_breaches(self):
        bus, engine = _engine_on_bus(parse_spec("metric:never.recorded<=0"))
        bus.publish({"event": "live.tick", "ts": 100.0})
        assert not engine.breached

    def test_span_quantile_ceiling(self):
        bus, engine = _engine_on_bus(parse_spec("span:slow.path:p50<=0.1"))
        for wall in (0.5, 0.6, 0.7):
            bus.publish({"event": "span", "path": "slow.path",
                         "wall_s": wall, "ts": 100.0})
        bus.publish({"event": "live.tick", "ts": 100.0})
        assert engine.breached
        (record,) = engine.breaches.values()
        assert record["value"] == pytest.approx(0.6)

    def test_bound_margin_floor(self):
        bus, engine = _engine_on_bus(parse_spec("bound:thm13.queries>=1.5"))
        bus.publish({"event": "bound_check", "kind": "row",
                     "spec": "thm13.queries", "direction": "lower",
                     "status": "ok", "measured": 120.0, "predicted": 100.0,
                     "slack": 1.0, "ts": 100.0})
        bus.publish({"event": "live.tick", "ts": 100.0})
        assert engine.breached  # margin 1.2 under the 1.5 floor

    def test_bound_check_violation_breaches_immediately(self):
        # No tick needed: an actual certified-bound violation alerts on
        # the bound_check record itself.
        bus, engine = _engine_on_bus(parse_spec("bound:thm13.queries>=1.0"))
        bus.publish({"event": "bound_check", "kind": "row",
                     "spec": "thm13.queries", "status": "violation",
                     "ratio": 0.8, "ts": 100.0})
        assert engine.breached
        (record,) = engine.breaches.values()
        assert record["reason"] == "bound_check violation"

    def test_stall_rule_flags_quiet_worker(self):
        bus, engine = _engine_on_bus(parse_spec("stall:5"))
        bus.publish({"event": "heartbeat", "worker": 77, "phase": "begin",
                     "chunk": 0, "ts": 100.0})
        bus.publish({"event": "live.tick", "ts": 102.0})
        assert not engine.breached
        bus.publish({"event": "live.tick", "ts": 110.0})
        assert engine.breached
        (record,) = engine.breaches.values()
        assert record["subject"] == "worker:77"
        assert record["reason"] == "heartbeat stalled"

    def test_breach_deduplicated_per_rule_and_subject(self):
        obs.STATE.enabled = True
        obs.count("slo.metric.test", 100)
        bus, engine = _engine_on_bus(parse_spec("metric:slo.metric.test<=10"))
        for ts in (100.0, 101.0, 102.0):
            bus.publish({"event": "live.tick", "ts": ts})
        assert len(engine.breaches) == 1

    def test_breach_emitted_as_slo_violation_event(self):
        sink = ListSink()
        obs.enable(sink)
        obs.count("slo.metric.test", 100)
        with live.publishing() as bus:
            engine = SloEngine(
                parse_spec("metric:slo.metric.test<=10")
            ).attach(bus)
            live.tick(ts=100.0)
            violations = [
                r for r in sink.records if r.get("event") == "slo.violation"
            ]
        assert len(violations) == 1
        assert violations[0]["rule"] == "metric:slo.metric.test<=10"
        assert not bus.errors  # the re-entrant tee must not explode
        assert engine.breached

    def test_spans_through_a_fully_subscribed_bus_raise_nothing(self):
        # Aggregator plus the default-rule engine on one bus while real
        # spans flow: every record reaches them and none errors.
        from repro.graphs.generators import random_balanced_digraph

        graph = random_balanced_digraph(32, beta=2.0, density=0.3, rng=32)
        nodes = list(graph.nodes())
        csr = graph.freeze()
        member = csr.membership_matrix(
            [frozenset(nodes[:k]) for k in range(1, 17)]
        )
        bus = LiveBus()
        aggregator = LiveAggregator().attach(bus)
        SloEngine(default_rules(), aggregator=aggregator).attach(bus)
        obs.enable(ListSink())
        with live.publishing(bus):
            for _ in range(3):
                with obs.span("cut_weights"):
                    csr.cut_weights(member)
        assert bus.published >= 3
        assert not bus.errors

    def test_event_time_gated_evaluation_without_ticks(self):
        obs.STATE.enabled = True
        obs.count("slo.metric.test", 100)
        bus, engine = _engine_on_bus(
            parse_spec("metric:slo.metric.test<=10"), eval_interval_s=0.5
        )
        bus.publish({"event": "span", "path": "p", "wall_s": 0.1, "ts": 100.0})
        assert not engine.breached  # first record only arms the clock
        bus.publish({"event": "span", "path": "p", "wall_s": 0.1, "ts": 100.9})
        assert engine.breached

    def test_finish_returns_all_breaches(self):
        obs.STATE.enabled = True
        obs.count("slo.metric.test", 100)
        bus, engine = _engine_on_bus(parse_spec("metric:slo.metric.test<=10"))
        breaches = engine.finish(now=100.0)
        assert len(breaches) == 1

    def test_summary_lines_mark_breaches(self):
        obs.STATE.enabled = True
        obs.count("slo.metric.test", 100)
        _, engine = _engine_on_bus(
            parse_spec("metric:slo.metric.test<=10;stall:30")
        )
        engine.finish(now=100.0)
        lines = engine.summary_lines()
        assert any(line.startswith("slo BREACH:") for line in lines)
        assert any(line.startswith("slo ok:") for line in lines)
        assert any(line.startswith("slo.violation") for line in lines)

    def test_detach_stops_evaluation(self):
        obs.STATE.enabled = True
        obs.count("slo.metric.test", 100)
        bus, engine = _engine_on_bus(parse_spec("metric:slo.metric.test<=10"))
        engine.detach(bus)
        bus.publish({"event": "live.tick", "ts": 100.0})
        assert not engine.breached
        assert bus.subscriber_count == 0

    def test_shared_aggregator_is_not_detached(self):
        bus = LiveBus()
        aggregator = LiveAggregator().attach(bus)
        engine = SloEngine(parse_spec("stall:30"), aggregator=aggregator)
        engine.attach(bus)
        engine.detach(bus)
        bus.publish({"event": "span", "path": "p", "wall_s": 1.0,
                     "ts": 100.0})
        assert aggregator.spans["p"].count(now=100.0) == 1


@pytest.fixture
def scratch_bound_registry():
    before = dict(obs_bounds._REGISTRY)
    yield
    obs_bounds._REGISTRY.clear()
    obs_bounds._REGISTRY.update(before)


class TestWildcardAgainstScratchRegistry:
    def test_expansion_follows_the_registry(self, scratch_bound_registry):
        obs_bounds._REGISTRY.clear()
        obs_bounds.register(BoundSpec(
            name="test.spec", theorem="Thm T", quantity="value:q",
            direction="lower", predicted=lambda **kw: 1.0,
            formula="1", slack=1.0,
        ))
        rules = parse_spec("bound:*>=1.0")
        assert [r.target for r in rules] == ["test.spec"]
