"""Tests for the standalone experiment runner CLI."""

import json

import pytest

from repro import obs
from repro.experiments.harness import Table
from repro.experiments.run_all import (
    EXIT_BOUND_VIOLATION,
    EXIT_EXPERIMENT_FAILURE,
    EXIT_TELEMETRY_FAILURE,
    REGISTRY,
    main,
)
from repro.obs import bounds
from repro.obs.bounds import BoundSpec
from repro.obs.sink import ListSink
from repro.obs.report import aggregate_spans, load_events, metric_totals


class TestRegistry:
    def test_all_ten_experiments_registered_in_order(self):
        assert list(REGISTRY) == [f"e{i}" for i in range(1, 11)]

    def test_each_experiment_returns_tables(self):
        # The cheap ones run here; CI runs the full set and compares its
        # stdout with docs/results.txt.
        for key in ("e5", "e6", "e7", "e8"):
            tables = REGISTRY[key]()
            assert tables
            for table in tables:
                assert table.rows
                assert table.render()


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        assert capsys.readouterr().out.split() == list(REGISTRY)

    def test_run_single(self, capsys):
        assert main(["e7", "--no-telemetry"]) == 0
        out = capsys.readouterr().out
        assert "Figures 3-6" in out

    def test_serve_smoke_passes_and_reports(self, capsys):
        assert main(["--serve"]) == 0
        err = capsys.readouterr().err
        assert "serve smoke: tcp://127.0.0.1:" in err
        assert "serve smoke: ok" in err

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["e99"])


class TestTelemetry:
    def test_run_writes_telemetry_jsonl(self, tmp_path, capsys):
        path = tmp_path / "telemetry.jsonl"
        assert main(["e5", "e7", "--telemetry", str(path)]) == 0
        assert f"telemetry written to {path}" in capsys.readouterr().out
        events = load_events(path)
        kinds = {e["event"] for e in events}
        assert {"span", "row", "summary"} <= kinds
        spans = aggregate_spans(events)
        assert spans["experiment.e5"]["count"] == 1
        assert spans["experiment.e7"]["count"] == 1
        # The summary's CSR counters reflect real kernel activity.
        totals = metric_totals(events)
        assert totals.get("csr.freeze.miss", 0) >= 1

    def test_rows_in_telemetry_match_printed_tables(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["e5", "--telemetry", str(path)]) == 0
        capsys.readouterr()
        rows = [e for e in load_events(path) if e["event"] == "row"]
        assert len(rows) == 6  # e5 prints two tables of three rows
        assert all(r["span_path"] == "experiment.e5" for r in rows)

    def test_no_telemetry_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["e7", "--no-telemetry"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "telemetry.jsonl").exists()

    def test_telemetry_file_is_valid_json_lines(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["e7", "--telemetry", str(path)]) == 0
        capsys.readouterr()
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_sink_path_is_logged(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["e7", "--telemetry", str(path)]) == 0
        assert f"telemetry sink: {path}" in capsys.readouterr().out

    def test_unopenable_sink_exits_3(self, tmp_path, capsys):
        path = tmp_path / "no_such_dir" / "t.jsonl"
        assert main(["e7", "--telemetry", str(path)]) == EXIT_TELEMETRY_FAILURE
        assert "cannot open telemetry sink" in capsys.readouterr().err

    def test_midrun_write_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        import repro.obs.session as session_mod
        from repro.obs.sink import JsonlSink

        class FailingSink(JsonlSink):
            def write(self, record):
                self._fail(OSError(28, "No space left on device"))

        monkeypatch.setattr(session_mod, "JsonlSink", FailingSink)
        path = tmp_path / "t.jsonl"
        assert main(["e7", "--telemetry", str(path)]) == EXIT_TELEMETRY_FAILURE
        assert "telemetry writing" in capsys.readouterr().err


@pytest.fixture
def scratch_bound_registry():
    before = dict(bounds._REGISTRY)
    yield
    bounds._REGISTRY.clear()
    bounds._REGISTRY.update(before)


@pytest.fixture
def fake_experiment(monkeypatch, scratch_bound_registry):
    """Register a tiny bound-certified experiment as ``e0test``.

    The bound is an upper envelope of 10 with slack 1, so a measured
    value above 10 is a violation and 10 or below passes.
    """
    bounds.register(
        BoundSpec(
            name="test.cli",
            theorem="Thm T",
            column="queries",
            direction="upper",
            predicted=lambda p: 10.0,
            formula="10",
            slack=1.0,
            sweep=None,
            requires=(),
        )
    )
    measured = {"value": 5.0}

    def _experiment():
        table = Table(title="T0", columns=["queries"], bounds=["test.cli"])
        table.add_row(queries=measured["value"])
        return [table]

    monkeypatch.setitem(REGISTRY, "e0test", _experiment)
    return measured


class TestStrictBounds:
    def test_passing_run_exits_0_and_prints_checks(
        self, fake_experiment, tmp_path, capsys
    ):
        path = tmp_path / "t.jsonl"
        code = main(["e0test", "--strict-bounds", "--telemetry", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Bound certification" in out
        assert "0 violations" in out
        checks = [
            e for e in load_events(path) if e["event"] == "bound_check"
        ]
        assert checks and all(c["status"] == "pass" for c in checks)

    def test_violation_exits_2_under_strict(
        self, fake_experiment, tmp_path, capsys
    ):
        fake_experiment["value"] = 99.0
        path = tmp_path / "t.jsonl"
        code = main(["e0test", "--strict-bounds", "--telemetry", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_BOUND_VIOLATION
        assert "bound violation" in captured.err
        assert "1 violations" in captured.out

    def test_violation_without_strict_still_exits_0(
        self, fake_experiment, tmp_path, capsys
    ):
        fake_experiment["value"] = 99.0
        path = tmp_path / "t.jsonl"
        assert main(["e0test", "--telemetry", str(path)]) == 0
        assert "1 violations" in capsys.readouterr().out

    def test_strict_bounds_without_telemetry_still_checks(
        self, fake_experiment, capsys
    ):
        fake_experiment["value"] = 99.0
        code = main(["e0test", "--strict-bounds", "--no-telemetry"])
        assert code == EXIT_BOUND_VIOLATION
        assert "Bound certification" in capsys.readouterr().out


class TestCertificationReadsPrintedColumns:
    def test_sketch_bits_certified_without_telemetry(self, capsys):
        assert main(["e1", "e2", "--no-telemetry"]) == 0
        plain = capsys.readouterr().out
        assert "skipped" not in plain
        for spec in ("thm11.sketch_bits", "thm12.sketch_bits"):
            passes = [
                line for line in plain.splitlines()
                if line.startswith(f"bound_check {spec} ") and " pass:" in line
            ]
            assert len(passes) == 3
        assert "bound_fit thm11.sketch_bits [Thm 1.1] pass: exponent -2.076" in plain
        assert "bound_fit thm12.sketch_bits [Thm 1.2] pass: exponent -4.152" in plain
        assert main(["e1", "e2", "--no-telemetry", "--strict-bounds"]) == 0
        assert capsys.readouterr().out == plain

    def test_memory_certifies_every_e3_row_on_its_own_oracle(self, capsys):
        assert main(
            ["e3", "--no-telemetry", "--memory=sample", "--strict-bounds"]
        ) == 0
        out = capsys.readouterr().out
        space = [
            line for line in out.splitlines()
            if line.startswith("bound_check thm13.space_bytes ")
        ]
        assert len(space) == 8
        assert all(" pass:" in line for line in space)
        assert out.count("oracle_bytes") == 2  # the E3 and E3b headers


def _space_specs_registered():
    from repro.obs.memory import SPACE_SPECS

    names = {spec.name for spec in bounds.registered_specs()}
    return [spec.name for spec in SPACE_SPECS if spec.name in names]


class TestCallerObsState:
    def test_caller_obs_switch_and_sink_survive_a_run(self, tmp_path, capsys):
        with obs.enabled(ListSink()) as caller_sink:
            code = main([
                "e7", "--no-telemetry",
                "--capture-wire=" + str(tmp_path / "wire.jsonl"),
            ])
            assert code == 0
            assert obs.STATE.enabled
            assert obs.STATE.sink is caller_sink

    def test_caller_metrics_and_span_stack_survive_a_run(
        self, tmp_path, capsys
    ):
        path = tmp_path / "t.jsonl"
        with obs.enabled(ListSink()) as caller_sink:
            obs.count("caller.counter", 5)
            with obs.span("outer"):
                code = main([
                    "e7", "--telemetry", str(path),
                    "--capture-wire=" + str(tmp_path / "wire.jsonl"),
                ])
                with obs.span("inner"):
                    pass
            assert code == 0
            assert obs.REGISTRY.counter("caller.counter").value == 5
        inner = [r for r in caller_sink.of_kind("span") if r["name"] == "inner"]
        assert [r["path"] for r in inner] == ["outer/inner"]
        # The run's own telemetry is a fresh process's: zeroed registry,
        # empty span stack.
        events = load_events(path)
        summary = [e for e in events if e["event"] == "summary"][-1]
        assert summary["metrics"]["counters"].get("caller.counter", 0) == 0
        paths = [e["path"] for e in events if e["event"] == "span"]
        assert "experiment.e7" in paths
        assert not [p for p in paths if p.startswith("outer")]


class TestEarlyExitsLeaveNothing:
    def test_malformed_slo_keeps_the_telemetry_file(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "summary"}\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["e7", "--telemetry", str(path), "--slo=widget:a<=1"])
        assert excinfo.value.code == 2
        assert path.read_text() == '{"event": "summary"}\n'

    def test_malformed_slo_unregisters_the_space_specs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["e7", "--no-telemetry", "--memory=sample",
                  "--slo=widget:a<=1"])
        assert excinfo.value.code == 2
        assert _space_specs_registered() == []

    @pytest.mark.parametrize("flag", ["--capture-wire", "--live-export"])
    def test_experiment_id_as_path_is_a_usage_error(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([flag, "e7", "--no-telemetry"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"write {flag}=PATH" in captured.err
        assert captured.out == ""  # nothing ran
        assert list(tmp_path.iterdir()) == []

    def test_a_file_named_like_an_id_is_given_with_its_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["--capture-wire", "./e7", "e7", "--no-telemetry"]) == 0
        assert "E7 / Figures 3-6" in capsys.readouterr().out
        assert (tmp_path / "e7").stat().st_size > 0

    def test_unopenable_sink_unregisters_the_space_specs(
        self, tmp_path, capsys
    ):
        path = tmp_path / "no_such_dir" / "t.jsonl"
        assert main(
            ["e7", "--memory=sample", "--telemetry", str(path)]
        ) == EXIT_TELEMETRY_FAILURE
        assert _space_specs_registered() == []


class TestFailureIsolation:
    def test_raising_experiment_does_not_stop_the_others(
        self, monkeypatch, capsys
    ):
        def _boom():
            raise RuntimeError("planted failure")

        monkeypatch.setitem(REGISTRY, "e0boom", _boom)
        code = main([
            "e5", "e0boom", "e7", "--no-telemetry",
            "--slo=metric:csr.maxflow.calls<=1e9",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_EXPERIMENT_FAILURE == 1
        assert "E5 / Figure 1" in captured.out
        assert "E7 / Figures 3-6" in captured.out
        assert "== SLO ==" in captured.out
        assert "experiment e0boom failed" in captured.err
        assert "RuntimeError: planted failure" in captured.err
        assert "1 experiment(s) failed: e0boom" in captured.err


class TestProfileFlag:
    def test_profile_with_nowhere_to_write_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["e7", "--profile", "--no-telemetry"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "profile records need" in captured.err
        assert captured.out == ""  # nothing ran

    def test_profile_events_written(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["e7", "--profile", "--telemetry", str(path)]) == 0
        capsys.readouterr()
        profiles = [
            e for e in load_events(path) if e["event"] == "profile"
        ]
        assert profiles
        assert all("span" in p and "func" in p for p in profiles)
