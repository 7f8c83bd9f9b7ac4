"""Shared serving-test hygiene (clean obs switch, capture, live bus)
and a builder for frames with hand-edited headers."""

import struct

import pytest

from repro import obs
from repro.obs import capture as obs_capture
from repro.obs import live as obs_live
from repro.serving.protocol import canonical_json, payload_bytes_digest


def frame_with_header(**fields):
    """A frame for ``{"a": 1}`` whose header fields are overridden."""
    body = canonical_json({"a": 1})
    header = {
        "sender": "c",
        "receiver": "s",
        "kind": "k",
        "bits": 8 * len(body),
        "digest": payload_bytes_digest(body),
        "payload_len": len(body),
        **fields,
    }
    raw = canonical_json(header)
    return struct.pack(">I", len(raw)) + raw + body


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable()
    obs.reset_metrics()
    obs_capture._ACTIVE.clear()
    obs_live.uninstall()
    yield
    obs.disable()
    obs.STATE.sink = None
    obs.reset_metrics()
    obs_capture._ACTIVE.clear()
    obs_live.uninstall()
