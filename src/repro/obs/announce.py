"""Shared stderr URL announcements for long-lived endpoints.

Three processes need to agree on where a live endpoint landed: the
process that bound it (``run_all --live-port``, the serving daemon),
the human watching (``scripts/obs_watch.py``), and the automation that
started the process with ``port 0`` and must discover the ephemeral
port afterwards (the serving tests, CI).  Before this module
each of them grew its own ad-hoc parsing of a slightly different
stderr line; now they all speak one format:

    ``<label>: <scheme>://host:port[/path]``

:func:`announce` prints that line (stderr by default, flushed so a
pipe reader sees it immediately), :func:`parse_announcements` recovers
``{label: url}`` from captured output, and :func:`read_announcement`
polls a log file until a wanted label appears — the port-race-free way
to start a ``port 0`` server in a subprocess and learn where it bound.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Optional, TextIO, Union

from repro.errors import ObsError

#: Separator between the label and the URL in an announcement line.
SEPARATOR = ": "


def format_announcement(label: str, url: str) -> str:
    """The canonical one-line form: ``label: scheme://...``."""
    if SEPARATOR in label:
        raise ObsError(f"announcement label {label!r} may not contain {SEPARATOR!r}")
    if "://" not in url:
        raise ObsError(f"announcement url {url!r} must carry a scheme")
    return f"{label}{SEPARATOR}{url}"


def announce(label: str, url: str, stream: Optional[TextIO] = None) -> str:
    """Print one announcement line (stderr by default) and return it.

    The line is flushed immediately: announcement readers tail pipes
    and files, and an announcement stuck in interpreter buffering is a
    hang on the other end.
    """
    line = format_announcement(label, url)
    out = sys.stderr if stream is None else stream
    print(line, file=out, flush=True)
    return line


def parse_announcements(text: str) -> Dict[str, str]:
    """Recover ``{label: url}`` from captured output.

    Only lines matching the announcement shape (a separator and a URL
    scheme) are picked up; everything else — tracebacks, progress
    chatter — is ignored.  A label announced twice keeps the *last*
    URL, matching a server that restarted on a new port.
    """
    found: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        label, sep, url = line.partition(SEPARATOR)
        if not sep or not label or "://" not in url:
            continue
        found[label] = url.strip()
    return found


def read_announcement(
    path: Union[str, "object"],
    label: str,
    timeout_s: float = 10.0,
    poll_s: float = 0.05,
) -> str:
    """Poll ``path`` until ``label`` is announced; return its URL.

    The subprocess pattern: spawn a server with ``--port 0`` and stderr
    redirected to ``path``, then call this to learn the bound port.
    Raises :class:`ObsError` after ``timeout_s`` with the file's tail in
    the message, so a crashed server's traceback is not swallowed.
    """
    deadline = time.monotonic() + timeout_s
    text = ""
    while time.monotonic() < deadline:
        try:
            with open(path, "r", errors="replace") as fh:
                text = fh.read()
        except OSError:
            text = ""
        urls = parse_announcements(text)
        if label in urls:
            return urls[label]
        time.sleep(poll_s)
    tail = "\n".join(text.splitlines()[-8:])
    raise ObsError(
        f"no {label!r} announcement in {path!s} after {timeout_s:g}s"
        + (f"; log tail:\n{tail}" if tail else "")
    )


__all__ = [
    "SEPARATOR",
    "announce",
    "format_announcement",
    "parse_announcements",
    "read_announcement",
]
