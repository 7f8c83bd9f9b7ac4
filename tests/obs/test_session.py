"""Tests for :class:`repro.obs.session.ObsSession`: the switch rule and
handing an in-process caller back the state the session found."""

import socket
from contextlib import ExitStack, nullcontext

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import bounds, capture, live, memory
from repro.obs.session import ObsSession, SetupError, parse_slo
from repro.obs.sink import ListSink


def _taken_port(stack):
    holder = stack.enter_context(socket.socket())
    holder.bind(("127.0.0.1", 0))
    holder.listen(1)
    return holder.getsockname()[1]


class TestSwitchRule:
    def test_daemon_without_flags_turns_nothing_on(self):
        with ObsSession(long_lived=True) as session:
            assert not obs.STATE.enabled
            assert live.active() is None
            assert capture.active() is None
            assert session.wire is None and session.engine is None

    @pytest.mark.parametrize("request_", ["metrics_port", "rules", "capture"])
    def test_each_daemon_flag_turns_the_switch_on(self, request_, tmp_path):
        kwargs = {
            "metrics_port": {"metrics_port": 0},
            "rules": {"rules": parse_slo("")},
            "capture": {"capture": str(tmp_path / "w.jsonl")},
        }[request_]
        with ObsSession(long_lived=True, **kwargs):
            assert obs.STATE.enabled
            # The bus exists exactly when a live consumer does.
            assert (live.active() is not None) == (request_ != "capture")
        assert not obs.STATE.enabled
        assert live.active() is None

    def test_unknown_memory_mode_and_homeless_profile_are_rejected(self):
        with pytest.raises(ObsError, match="memory mode"):
            ObsSession(memory_mode="bogus")
        with pytest.raises(ObsError, match="profile records"):
            ObsSession(profile=True)
        ObsSession(profile=True, live_export="live.jsonl")  # installs nothing


def _caller_state(stack, with_bus):
    """Switch on with a sink, a counted metric, an open span, a capture,
    a bound spec of the memory set, and (optionally) a live bus."""
    sink = stack.enter_context(obs.enabled(ListSink()))
    obs.count("caller.counter", 5)
    stack.enter_context(obs.span("outer"))
    stack.enter_context(capture.capturing(capture.WireCapture()))
    bounds.register(memory.SPACE_SPECS[0], replace=True)
    stack.callback(bounds.unregister, memory.SPACE_SPECS[0].name)
    if with_bus:
        stack.enter_context(live.publishing())
    return sink


def _snapshot():
    return (
        obs.STATE.enabled,
        obs.STATE.sink,
        obs.REGISTRY.counter("caller.counter").value,
        obs.current_path(),
        live.active(),
        list(capture._ACTIVE),
        bounds.registered_specs(),
        list(bounds._MONITORS),
        memory.active(),
    )


class TestCallerStateComesBack:
    @pytest.mark.parametrize("step", ["telemetry", "capture", "live_export",
                                      "metrics_port"])
    def test_setup_failure_leaves_the_caller_as_it_was(self, step, tmp_path,
                                                       capsys):
        ok = str(tmp_path / "ok.jsonl")
        missing = str(tmp_path / "no_such_dir" / "f.jsonl")
        with ExitStack() as stack:
            # Each step fails after every step before it has opened.  The
            # live steps own the bus, so the caller has one only on the
            # steps before them.
            kwargs = {
                "telemetry": {"telemetry": missing},
                "capture": {"telemetry": ok, "capture": missing},
                "live_export": {"telemetry": ok, "rules": parse_slo(""),
                                "live_export": missing},
                "metrics_port": {"telemetry": ok, "rules": parse_slo(""),
                                 "live_export": ok,
                                 "metrics_port": _taken_port(stack)},
            }[step]
            _caller_state(stack, with_bus=step in ("telemetry", "capture"))
            before = _snapshot()
            session = ObsSession(memory_mode="sample", **kwargs)
            with pytest.raises(SetupError):
                with session:
                    pass  # pragma: no cover - setup fails first
            assert _snapshot() == before
        err = capsys.readouterr().err
        assert "error: cannot bind" in err or "error: cannot open" in err

    @pytest.mark.parametrize("raises", [False, True])
    def test_exit_leaves_the_caller_as_it_was(self, raises, tmp_path, capsys):
        with ExitStack() as stack:
            _caller_state(stack, with_bus=False)
            before = _snapshot()
            session = ObsSession(
                telemetry=str(tmp_path / "t.jsonl"),
                capture=str(tmp_path / "w.jsonl"),
                live_export=str(tmp_path / "live.jsonl"),
                rules=parse_slo("", memory_mode="sample"),
                memory_mode="sample",
            )
            with pytest.raises(RuntimeError) if raises else nullcontext():
                with session:
                    # The run starts from a zeroed registry and an empty
                    # span stack.
                    assert obs.REGISTRY.counter("caller.counter").value == 0
                    assert obs.current_path() == ""
                    assert obs.STATE.sink is session.sink
                    if raises:
                        raise RuntimeError("planted")
            assert _snapshot() == before
