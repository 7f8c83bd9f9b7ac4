"""Parallel trial execution: deterministic fan-out over forked workers.

Public surface:

* :func:`~repro.parallel.pool.run_trials` — run a trial function ``n``
  times with split randomness, bit-identical to the serial path for any
  worker count;
* :class:`~repro.parallel.pool.TrialPool` — the chunked work-stealing
  scheduler underneath (``map`` over arbitrary picklable-result work,
  on forked workers that outlive the call: each exits on its own once
  it has had no map for a few tens of milliseconds);
* :func:`~repro.parallel.pool.release_workers` — retire those resident
  workers now;
* :func:`~repro.parallel.pool.resolve_jobs` /
  :func:`~repro.parallel.pool.set_default_jobs` — the ``jobs``
  resolution chain (argument → process default → ``REPRO_JOBS`` → 1);
* :mod:`~repro.parallel.obsmerge` — worker-side telemetry collection
  and the parent-side order-deterministic merge, plus the
  :class:`~repro.parallel.obsmerge.HeartbeatSender` that streams
  mid-run liveness beats to the :mod:`repro.obs.live` bus.

See EXPERIMENTS.md, "Parallel execution", for the determinism and
telemetry-merge contracts.
"""

from repro.errors import ParallelError
from repro.parallel.pool import (
    JOBS_ENV,
    TrialPool,
    chunk_plan,
    fork_available,
    release_workers,
    resolve_jobs,
    run_trials,
    set_default_jobs,
)
from repro.parallel import obsmerge  # noqa: F401  (submodule re-export)

__all__ = [
    "JOBS_ENV",
    "ParallelError",
    "TrialPool",
    "chunk_plan",
    "fork_available",
    "release_workers",
    "resolve_jobs",
    "run_trials",
    "set_default_jobs",
]
