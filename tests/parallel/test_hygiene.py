"""Pool hygiene: no worker process and no open file outlives the pool.

A failed ``map`` (trial exception, worker crash, hang past the timeout)
joins every worker it hired and closes every pipe before it raises.  A
clean map leaves its workers resting for the next one, so the same
property holds at the idle boundary instead: once
:func:`~repro.parallel.release_workers` retires them, and once they have
rested ``_IDLE_S`` with no call at all and ``multiprocessing`` has
reaped them.
"""

import multiprocessing as mp
import os
import time
from contextlib import nullcontext

import pytest

from repro.errors import ParallelError
from repro.obs import live
from repro.parallel import TrialPool, fork_available, release_workers
from repro.parallel import pool as pool_mod

pytestmark = [
    pytest.mark.skipif(
        not fork_available(), reason="platform lacks the fork start method"
    ),
    pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    ),
]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _raising(item):
    if item == 5:
        raise ValueError("injected failure")
    return item


def _crashing(item):
    if item == 2:
        os._exit(13)
    return item


def _hanging(item):
    if item == 1:
        time.sleep(60)
    return item


def _rest_until_reaped():
    """Make no pool call until the workers have exited of themselves
    and ``multiprocessing`` has reaped them."""
    deadline = time.monotonic() + 10.0
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(pool_mod._IDLE_S)


#: (pool arguments, trial function, error expected from map or None).
PATHS = {
    "normal": ({}, lambda item: item * 2, None),
    "trial exception": ({}, _raising, "injected failure"),
    "crash": ({}, _crashing, "worker process died"),
    "timeout": ({"timeout": 1.0}, _hanging, "timeout"),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("watched", [False, True], ids=["no bus", "live bus"])
def test_map_leaves_no_worker_and_no_open_file(path, watched):
    kwargs, fn, error = PATHS[path]
    before = _open_fds()
    for boundary in (release_workers, _rest_until_reaped):
        with live.publishing() if watched else nullcontext():
            if error is None:
                assert TrialPool(jobs=2, **kwargs).map(fn, list(range(8))) == [
                    item * 2 for item in range(8)
                ]
            else:
                with pytest.raises(ParallelError, match=error):
                    TrialPool(jobs=2, **kwargs).map(fn, list(range(8)))
                assert mp.active_children() == []
                assert _open_fds() == before
        boundary()
        assert mp.active_children() == []
        assert _open_fds() == before


def test_workers_started_are_capped_by_the_chunk_count(monkeypatch):
    release_workers()
    started = []
    real_start = mp.process.BaseProcess.start

    def counting_start(process):
        started.append(process)
        real_start(process)

    monkeypatch.setattr(mp.process.BaseProcess, "start", counting_start)
    assert TrialPool(jobs=4).map(lambda item: item + 1, [1, 2]) == [2, 3]
    assert len(started) == 2
    release_workers()
    assert mp.active_children() == []
