"""Resident workers: a map's workers serve the next map too.

A clean map leaves its workers resting; the next map pickles its work,
closures included, and sends it to them.  A map whose work does not
pickle, or that runs under a parent state the resting workers were not
forked under, gets workers forked for it instead, so its results and
telemetry stay those of a serial run.
"""

import io
import json
import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.forall_lb import ForAllParams
from repro.forall_lb.encoder import ForAllEncoder
from repro.foreach_lb import ForEachParams
from repro.foreach_lb.decoder import ForEachDecoder
from repro.foreach_lb.encoder import ForEachEncoder
from repro.kernels import get_backend, select_backend
from repro.obs.metrics import REGISTRY
from repro.obs.sink import ListSink
from repro.parallel import TrialPool, fork_available, run_trials
from repro.parallel import pool as pool_mod
from repro.sketch import ExactCutSketch
from repro.utils.bitstrings import random_signstring

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


@pytest.fixture
def patient(monkeypatch):
    """Workers forked from now on rest 60 s before they exit, so a map
    finds the previous map's workers however slow the host is."""
    monkeypatch.setattr(pool_mod, "_IDLE_S", 60.0)


def _pids(results):
    return {pid for _, pid in results}


@needs_fork
class TestResidentWorkers:
    def test_back_to_back_closures_run_on_the_same_workers(self, patient):
        base, scale = 100, 3
        first = TrialPool(jobs=2).map(lambda x: (x + base, os.getpid()), range(8))
        second = TrialPool(jobs=2).map(lambda x: (x * scale, os.getpid()), range(8))
        assert [value for value, _ in first] == [x + base for x in range(8)]
        assert [value for value, _ in second] == [x * scale for x in range(8)]
        assert len(_pids(first)) == 2
        assert _pids(second) == _pids(first)
        assert os.getpid() not in _pids(first)

    def test_a_backend_selection_reaches_every_trial(self, patient):
        TrialPool(jobs=2).map(lambda x: x, range(4))
        previous = select_backend("python")
        try:
            names = TrialPool(jobs=2).map(lambda _: get_backend().name, range(4))
        finally:
            select_backend(previous)
        assert names == ["python"] * 4

    def test_unpicklable_closure_runs_on_workers_forked_for_it(self, patient):
        resident = _pids(TrialPool(jobs=2).map(lambda x: (x, os.getpid()), range(4)))
        lock = threading.Lock()

        def locked(x):
            with lock:
                return x * 2, os.getpid()

        with pytest.raises(TypeError):
            pickle.dumps(lock)
        results = TrialPool(jobs=2).map(locked, range(6))
        assert [value for value, _ in results] == [x * 2 for x in range(6)]
        assert not _pids(results) & resident
        # The resting workers were left for the next map that pickles.
        again = TrialPool(jobs=2).map(lambda x: (x, os.getpid()), range(4))
        assert _pids(again) == resident

    @pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
    def test_worker_gone_idle_under_a_sent_chunk(self, monkeypatch):
        # Workers forked now leave the moment they rest.
        monkeypatch.setattr(pool_mod, "_IDLE_S", 0.0)
        isolated = []
        run_isolated = TrialPool._run_isolated

        def counted(pool, ctx, token, index):
            isolated.append(index)
            return run_isolated(pool, ctx, token, index)

        monkeypatch.setattr(TrialPool, "_run_isolated", counted)
        first = TrialPool(jobs=2).map(lambda x: (x, os.getpid()), range(6))
        for pid in _pids(first):
            # Wait until it has exited, without reaping it, so the pool
            # still counts it as resting and sends it the next chunk.
            deadline = time.monotonic() + 10.0
            flags = os.WEXITED | os.WNOWAIT | os.WNOHANG
            while os.waitid(os.P_PID, pid, flags) is None:
                assert time.monotonic() < deadline, f"worker {pid} did not exit"
                time.sleep(0.01)
        second = TrialPool(jobs=2).map(lambda x: (x * 5, os.getpid()), range(6))
        assert [value for value, _ in second] == [x * 5 for x in range(6)]
        assert not _pids(second) & _pids(first)
        assert isolated == []


def _counting_trial(rng):
    value = float(rng.random())
    obs.count("resident.trials")
    obs.observe("resident.value", value)
    obs.event("resident.trial", value=round(value, 9))
    return value


def _telemetry(jobs):
    """An obs-off run, then an obs-on run: the second's results, its
    events as JSON lines (without order stamps and worker origin) and
    its metrics."""
    run_trials(_counting_trial, 6, np.random.default_rng(1), jobs=jobs)
    sink = ListSink()
    obs.enable(sink)
    try:
        results = run_trials(_counting_trial, 6, np.random.default_rng(2), jobs=jobs)
    finally:
        obs.disable()
    lines = "".join(
        json.dumps(
            {k: v for k, v in record.items() if k not in ("seq", "ts", "worker", "chunk")},
            sort_keys=True,
        ) + "\n"
        for record in sink.records
    )
    metrics = REGISTRY.dump_state()
    obs.reset_metrics()
    return results, lines, metrics


@needs_fork
def test_obs_on_map_after_obs_off_map_matches_serial(patient):
    serial = _telemetry(jobs=1)
    assert "resident.trial" in serial[1]
    assert _telemetry(jobs=2) == serial


# ----------------------------------------------------------------------
# the lower-bound encoders and decoder travel as their parameter sets
# ----------------------------------------------------------------------

FOREACH = ForEachParams(inv_eps=4, sqrt_beta=2, num_groups=3)
FORALL = ForAllParams(inv_eps_sq=4, beta=1, num_groups=2)
SHARED = {
    "foreach encoder": lambda: ForEachEncoder(FOREACH),
    "foreach decoder": lambda: ForEachDecoder(FOREACH),
    "forall encoder": lambda: ForAllEncoder(FORALL),
}


class _StatePickler(pickle.Pickler):
    """Pickles the shared instances by everything they hold."""

    def reducer_override(self, obj):
        if isinstance(obj, (ForEachEncoder, ForEachDecoder, ForAllEncoder)):
            return type(obj), (), vars(obj)
        return NotImplemented


def _state(obj):
    buffer = io.BytesIO()
    _StatePickler(buffer).dump(obj)
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(SHARED))
def test_pickle_round_trip_returns_the_shared_instance(name):
    built = SHARED[name]()
    shared = pickle.loads(pickle.dumps(built))
    assert shared is not built
    assert type(shared) is type(built)
    assert pickle.loads(pickle.dumps(built)) is shared
    assert pickle.loads(pickle.dumps(shared)) is shared
    assert len(pickle.dumps(built)) < 400


def _index_round(encoder, decoder, seed):
    rng = np.random.default_rng(seed)
    s = random_signstring(FOREACH.string_length, rng=rng)
    q = int(rng.integers(0, FOREACH.string_length))
    sketch = ExactCutSketch(encoder.encode(s).graph)
    return decoder.decode_bit(sketch, q), int(s[q])


def _gap_hamming_encoding(encoder, seed):
    rng = np.random.default_rng(seed)
    strings = rng.integers(0, 2, size=(FORALL.num_strings, FORALL.string_length))
    return encoder.encode(list(strings)).graph.freeze().weights


def test_rounds_leave_the_shared_instances_unchanged():
    encoder = pickle.loads(pickle.dumps(ForEachEncoder(FOREACH)))
    decoder = pickle.loads(pickle.dumps(ForEachDecoder(FOREACH)))
    forall = pickle.loads(pickle.dumps(ForAllEncoder(FORALL)))
    # A first round fills the caches a snapshot keeps (its dense parts).
    _index_round(encoder, decoder, 0)
    _gap_hamming_encoding(forall, 0)
    before = [_state(encoder), _state(decoder), _state(forall)]
    for seed in (1, 2, 3):
        fresh = ForEachEncoder(FOREACH), ForEachDecoder(FOREACH)
        assert _index_round(encoder, decoder, seed) == _index_round(*fresh, seed)
        assert np.array_equal(
            _gap_hamming_encoding(forall, seed),
            _gap_hamming_encoding(ForAllEncoder(FORALL), seed),
        )
    assert [_state(encoder), _state(decoder), _state(forall)] == before
