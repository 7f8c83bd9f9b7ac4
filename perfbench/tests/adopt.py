"""Run a command below a subreaper and report what it left running.

    python perfbench/tests/adopt.py REPORT CMD [ARG ...]

Processes that the command's tree still has running when the command
exits are reparented to this process rather than to init, so one that
ends a moment later is still seen.  SIGINT and SIGTERM are passed on to
the command.  REPORT receives ``{"returncode": N, "adopted": [...]}``
(``"pid: command line"`` per adopted process); then every adopted
process is stopped and this process exits with the command's code.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import common  # noqa: E402


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


def main() -> int:
    report, cmd = Path(sys.argv[1]), sys.argv[2:]
    if not common.become_subreaper():
        raise SystemExit("adopt.py: PR_SET_CHILD_SUBREAPER is not available")
    proc = subprocess.Popen(cmd)
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda signum, _frame: proc.send_signal(signum))
    code = proc.wait()
    adopted = [f"{pid}: {_cmdline(pid)}" for pid in common.child_pids(os.getpid())]
    report.write_text(json.dumps({"returncode": code, "adopted": adopted}))
    common.reap_descendants(grace_s=1.0)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
