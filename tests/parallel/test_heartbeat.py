"""Worker heartbeats: liveness streaming without touching telemetry.

Workers ship periodic ``heartbeat`` records over a fork-inherited queue
while a live bus is installed in the parent; the parent drains them onto
the bus between result polls.  The contracts under test: beats flow
mid-run with worker/chunk/progress payloads, a stalled worker trips a
live ``slo.violation`` while its future is still pending (before the
timeout/retry path replaces it), beats never perturb the merged
telemetry (serial == parallel with or without anyone watching), and
with no bus installed no queue is ever created.
"""

import threading
import time
from multiprocessing import util as mp_util

import numpy as np
import pytest

from repro import obs
from repro.obs import live
from repro.obs.live import LiveAggregator, LiveBus
from repro.obs.metrics import REGISTRY
from repro.obs.sink import ListSink
from repro.obs.slo import SloEngine, parse_spec
from repro.parallel import TrialPool, fork_available, obsmerge, run_trials
from repro.parallel import pool as pool_mod

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


def _counting_trial(rng):
    obs.count("hb.trials")
    return float(rng.random())


class TestHeartbeatFlow:
    def test_beats_reach_the_parent_bus(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0")  # beat every trial
        with live.publishing() as bus:
            beats = []
            bus.subscribe(beats.append, kinds=["heartbeat"])
            TrialPool(jobs=2).map(lambda x: x, list(range(8)))
        assert beats
        phases = {b["phase"] for b in beats}
        assert "begin" in phases and "end" in phases
        for beat in beats:
            assert isinstance(beat["worker"], int)
            assert "chunk" in beat and "done" in beat and "metrics" in beat

    def test_progress_beats_carry_registry_deltas(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0")
        obs.enable(ListSink())
        try:
            with live.publishing() as bus:
                beats = []
                bus.subscribe(beats.append, kinds=["heartbeat"])
                run_trials(
                    _counting_trial, 8, np.random.default_rng(3), jobs=2
                )
        finally:
            obs.disable()
        shipped = sum(
            beat["metrics"].get("hb.trials", 0) for beat in beats
        )
        # Every trial's counter movement shows up in some beat's delta.
        assert shipped == 8

    def test_late_end_beat_is_not_dropped(self, monkeypatch):
        # Chunk 0's ``end`` beat reaches the queue half a second after
        # the chunk returned, as when it waits in the worker's queue
        # feeder thread; map must still put it on the bus.
        real_beat = obsmerge.HeartbeatSender.beat

        def late_end_beat(sender, phase, trial, done):
            if phase != "end" or sender.chunk != 0:
                return real_beat(sender, phase, trial, done)

            def deliver():
                time.sleep(0.5)
                real_beat(sender, phase, trial, done)

            thread = threading.Thread(target=deliver)
            thread.start()
            # Keep the worker from closing its queue before the beat.
            mp_util.Finalize(None, thread.join, exitpriority=100)

        monkeypatch.setattr(obsmerge.HeartbeatSender, "beat", late_end_beat)
        with live.publishing() as bus:
            beats = []
            bus.subscribe(beats.append, kinds=["heartbeat"])
            TrialPool(jobs=2).map(lambda x: x, list(range(8)))
        ended = sorted(b["chunk"] for b in beats if b["phase"] == "end")
        assert ended == [start for start, _ in pool_mod.chunk_plan(8, 2)]

    def test_ticks_are_published_while_waiting(self):
        with live.publishing() as bus:
            ticks = []
            bus.subscribe(ticks.append, kinds=["live.tick"])
            TrialPool(jobs=2).map(lambda x: x, list(range(4)))
        assert ticks  # the parent's drain loop pulses the bus clock

    def test_no_bus_means_no_queue(self, monkeypatch):
        created = []
        real_get_context = pool_mod.mp.get_context

        def spying_get_context(method):
            ctx = real_get_context(method)

            class SpyCtx:
                def Queue(self):  # noqa: N802 - multiprocessing API
                    created.append(True)
                    return ctx.Queue()

                def __getattr__(self, name):
                    return getattr(ctx, name)

            return SpyCtx()

        monkeypatch.setattr(pool_mod.mp, "get_context", spying_get_context)
        TrialPool(jobs=2).map(lambda x: x, list(range(4)))
        assert not created

    def test_heartbeat_queue_cleared_after_map(self):
        with live.publishing():
            TrialPool(jobs=2).map(lambda x: x, list(range(4)))
            assert pool_mod._HEARTBEAT_Q is None


class TestStallAlert:
    def test_stalled_worker_breaches_before_retry(self, tmp_path):
        """The live stall alert fires while the hung future is pending.

        One trial hangs past the stall threshold but under the pool
        timeout: the run still completes via the timeout/retry path,
        and by then the SLO engine must already hold a worker-stall
        breach — the alert preceded the recovery.
        """
        sentinel = tmp_path / "hung-once"

        def fn(item):
            if item == 1 and not sentinel.exists():
                sentinel.write_text("hanging")
                time.sleep(60)
            return item

        with live.publishing() as bus:
            engine = SloEngine(parse_spec("stall:1")).attach(bus)
            results = TrialPool(jobs=2, timeout=3.0, chunk_factor=1).map(
                fn, list(range(4))
            )
        assert results == [0, 1, 2, 3]
        assert sentinel.exists()
        stall_breaches = [
            record for record in engine.breaches.values()
            if record["reason"] == "heartbeat stalled"
        ]
        assert stall_breaches
        assert stall_breaches[0]["subject"].startswith("worker:")
        assert not bus.errors

    def test_healthy_run_never_trips_the_stall_rule(self):
        with live.publishing() as bus:
            engine = SloEngine(parse_spec("stall:30")).attach(bus)
            TrialPool(jobs=2).map(lambda x: x, list(range(6)))
        assert not engine.breached


def _run_counting(jobs, bus=False, n_trials=9, seed=5):
    sink = ListSink()
    obs.enable(sink)
    try:
        if bus:
            with live.publishing():
                results = run_trials(
                    _counting_trial, n_trials,
                    np.random.default_rng(seed), jobs=jobs,
                )
        else:
            results = run_trials(
                _counting_trial, n_trials,
                np.random.default_rng(seed), jobs=jobs,
            )
    finally:
        obs.disable()
    state = REGISTRY.dump_state()
    obs.reset_metrics()
    return {"results": results, "metrics": state, "events": sink.records}


def _stripped(records):
    drop = {"seq", "ts", "worker", "chunk"}
    return [{k: v for k, v in r.items() if k not in drop} for r in records]


class TestTelemetryUnperturbed:
    def test_serial_equals_parallel_with_heartbeats(self, monkeypatch):
        # The PR 5 reconciliation invariant must survive beats: merged
        # metrics and events are identical whether or not a bus (and
        # its heartbeat queue) was live, at every worker count.
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0")
        serial = _run_counting(jobs=1, bus=False)
        for jobs in (1, 2, 4):
            watched = _run_counting(jobs=jobs, bus=True)
            assert watched["results"] == serial["results"]
            assert watched["metrics"] == serial["metrics"]
            assert _stripped(watched["events"]) == _stripped(
                serial["events"]
            )

    def test_no_heartbeat_records_in_telemetry(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0")
        watched = _run_counting(jobs=2, bus=True)
        assert all(
            record.get("event") != "heartbeat"
            for record in watched["events"]
        )


class TestWorkerBusIsolation:
    def test_inherited_bus_is_cleared_inside_workers(self):
        # worker_begin drops the fork-inherited bus first thing, so the
        # parent's subscribers (engines, exporters) never run in a
        # child against partial state.
        def fn(item):
            return live.active() is None

        obs.enable(ListSink())
        try:
            with live.publishing():
                cleared = TrialPool(jobs=2).map(fn, list(range(4)))
        finally:
            obs.disable()
        assert all(cleared)
