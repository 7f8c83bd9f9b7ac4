"""Importing the optional obs layers installs nothing.

With telemetry disabled, the hot paths must see what they saw before
these layers existed: the switch off, no wire capture, no live bus, no
memory profiler, and a profiler that does not run until started.  The
probe runs in a fresh interpreter so no other test's state leaks in.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
from repro import obs
from repro.obs import bounds, capture, export, exporters, live, memory
from repro.obs import profile, replay, slo
assert not obs.STATE.enabled
assert capture.active() is None
assert live.active() is None
assert memory.active() is None
assert not profile.SpanProfiler().running
print("inert")
"""


def test_importing_obs_layers_installs_nothing():
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "inert"
