"""Importing the optional obs layers installs nothing.

With telemetry disabled, the hot paths must see what they saw before
these layers existed: the switch off, no wire capture, no live bus, no
memory profiler, and a profiler that does not run until started.
``import repro`` leaves the metrics server's ``http.server`` unloaded.  The
probes run in a fresh interpreter so no other test's state leaks in.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
from repro import obs
# Only a process that serves metrics needs http.server (and the email
# and ssl packages it pulls in).
assert "http.server" not in sys.modules
from repro.obs import bounds, capture, export, exporters, live, memory
from repro.obs import profile, replay, session, slo
assert not obs.STATE.enabled
assert capture.active() is None
assert live.active() is None
assert memory.active() is None
assert not profile.SpanProfiler().running
print("inert")
"""

# The daemon and the load generator import the server; the experiment
# harness and the report tables are batch-run code they never call.
SERVER_PROBE = """
import sys
import repro.serving.server
loaded = sorted(
    name for name in sys.modules
    if name.startswith("repro.experiments") or name == "repro.obs.report"
)
assert not loaded, loaded
print("inert")
"""


def _probe(code):
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_importing_obs_layers_installs_nothing():
    result = _probe(PROBE)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "inert"


def test_importing_the_server_loads_no_batch_code():
    result = _probe(SERVER_PROBE)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "inert"
