"""Tests for the standalone experiment runner CLI."""

import json

import pytest

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
        import repro.experiments.run_all as run_all_mod
        from repro.obs.sink import JsonlSink

        class FailingSink(JsonlSink):
            def write(self, record):
                self._fail(OSError(28, "No space left on device"))

        monkeypatch.setattr(run_all_mod, "JsonlSink", FailingSink)
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
            quantity="value:queries",
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
    def test_profile_events_written(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["e7", "--profile", "--telemetry", str(path)]) == 0
        capsys.readouterr()
        profiles = [
            e for e in load_events(path) if e["event"] == "profile"
        ]
        assert profiles
        assert all("span" in p and "func" in p for p in profiles)
