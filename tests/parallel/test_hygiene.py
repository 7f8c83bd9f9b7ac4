"""Pool hygiene: a ``map`` leaves no worker process and no open file.

Every worker is joined, and every pipe closed, before ``map`` returns or
raises, on the normal path and on each failure path of the protocol
(trial exception, worker crash, hang past the timeout).
"""

import multiprocessing as mp
import os
import time
from contextlib import nullcontext

import pytest

from repro.errors import ParallelError
from repro.obs import live
from repro.parallel import TrialPool, fork_available

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
    # The first map starts multiprocessing's resource tracker (for the
    # shared-memory arena), whose pipe stays open for the process's life.
    TrialPool(jobs=2).map(lambda item: item, [0, 1])
    kwargs, fn, error = PATHS[path]
    before = _open_fds()
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


def test_workers_started_are_capped_by_the_chunk_count(monkeypatch):
    started = []
    real_start = mp.process.BaseProcess.start

    def counting_start(process):
        started.append(process)
        real_start(process)

    monkeypatch.setattr(mp.process.BaseProcess, "start", counting_start)
    assert TrialPool(jobs=4).map(lambda item: item + 1, [1, 2]) == [2, 3]
    assert len(started) == 2
    assert mp.active_children() == []
