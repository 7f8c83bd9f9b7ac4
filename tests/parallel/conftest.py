"""Shared parallel-test hygiene: clean obs state, jobs defaults and no
resident pool workers carried from one test into the next."""

import pytest

from repro import obs
from repro.obs import bounds as obs_bounds
from repro.obs import capture as obs_capture
from repro.obs import live as obs_live
from repro.parallel import release_workers, set_default_jobs


@pytest.fixture(autouse=True)
def clean_parallel_state(monkeypatch):
    # Parallel tests must control their worker counts explicitly; an
    # ambient REPRO_JOBS (the CI jobs=2 leg exports one) would skew the
    # serial baselines they compare against.
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    set_default_jobs(None)
    obs.disable()
    obs.reset_metrics()
    obs_capture._ACTIVE.clear()
    obs_bounds._MONITORS.clear()
    obs_live.uninstall()
    release_workers()
    yield
    release_workers()
    set_default_jobs(None)
    obs.disable()
    obs.STATE.sink = None
    obs.reset_metrics()
    obs_capture._ACTIVE.clear()
    obs_bounds._MONITORS.clear()
    obs_live.uninstall()
