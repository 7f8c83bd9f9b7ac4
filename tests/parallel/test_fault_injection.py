"""Crash, hang, and exception recovery: no silent partial tables.

Worker death is injected with ``os._exit`` (bypasses Python cleanup the
way an OOM kill or segfault would).  A sentinel file distinguishes
"crash once, then succeed" from "crash every time": the retried trial
runs on a fresh process with the same item, so a crash-once workload
must complete with full results, and a crash-always workload must
surface a ParallelError naming the trial.
"""

import os
import pickle
import threading
import time

import pytest

from repro.errors import ParallelError
from repro.parallel import TrialPool, fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


class TestTrialExceptions:
    def test_error_names_the_trial(self):
        def fn(item):
            if item == 5:
                raise ValueError("injected failure")
            return item

        with pytest.raises(ParallelError) as excinfo:
            TrialPool(jobs=2).map(fn, list(range(8)))
        assert excinfo.value.trial == 5
        assert "injected failure" in str(excinfo.value)
        assert "ValueError" in str(excinfo.value)

    def test_traceback_text_ships_back(self):
        def deep():
            raise RuntimeError("at depth")

        def fn(item):
            deep()

        with pytest.raises(ParallelError) as excinfo:
            TrialPool(jobs=2).map(fn, [0, 1])
        assert "deep" in str(excinfo.value)  # worker traceback included


class TestUnpicklableResults:
    def test_error_names_the_trial_and_the_pickling_error(self):
        lock = threading.Lock()

        def fn(item):
            return lock if item == 3 else item

        with pytest.raises(TypeError) as pickling:
            pickle.dumps(lock)
        with pytest.raises(ParallelError) as excinfo:
            TrialPool(jobs=2).map(fn, list(range(6)))
        assert excinfo.value.trial == 3
        assert str(pickling.value) in str(excinfo.value)
        assert "cannot be pickled" in str(excinfo.value)


class TestWorkerCrashes:
    def test_crash_once_retries_with_same_item(self, tmp_path):
        sentinel = tmp_path / "crashed-once"

        def fn(item):
            if item == 3 and not sentinel.exists():
                sentinel.write_text("dying")
                os._exit(13)
            return item * 10

        results = TrialPool(jobs=2).map(fn, list(range(6)))
        assert results == [0, 10, 20, 30, 40, 50]
        assert sentinel.exists()  # the crash really happened

    def test_crash_always_raises_with_trial_index(self, tmp_path):
        def fn(item):
            if item == 2:
                os._exit(13)
            return item

        with pytest.raises(ParallelError) as excinfo:
            TrialPool(jobs=2).map(fn, list(range(5)))
        assert excinfo.value.trial == 2
        assert "retry" in str(excinfo.value)

    def test_no_partial_results_on_failure(self, tmp_path):
        # The contract: either every trial's result comes back, or the
        # call raises — a caller can never observe a short table.
        def fn(item):
            if item == 4:
                os._exit(13)
            return item

        with pytest.raises(ParallelError):
            TrialPool(jobs=3).map(fn, list(range(9)))


class TestHangs:
    def test_hung_worker_times_out_and_is_retried(self, tmp_path):
        sentinel = tmp_path / "hung-once"

        def fn(item):
            if item == 1 and not sentinel.exists():
                sentinel.write_text("hanging")
                time.sleep(60)
            return item

        results = TrialPool(jobs=2, timeout=2.0).map(fn, list(range(4)))
        assert results == [0, 1, 2, 3]

    def test_hang_always_raises_with_trial_index(self):
        def fn(item):
            if item == 1:
                time.sleep(60)
            return item

        with pytest.raises(ParallelError) as excinfo:
            TrialPool(jobs=2, timeout=1.0).map(fn, list(range(3)))
        assert excinfo.value.trial == 1
        assert "timeout" in str(excinfo.value)
