"""Tests for repro.experiments.harness."""

import pytest

from repro import obs
from repro.experiments.harness import Row, Table, sweep
from repro.obs.sink import ListSink


class TestTable:
    def test_render_contains_data(self):
        t = Table(title="demo", columns=["x", "y"])
        t.add_row(x=1, y=2.5)
        t.add_row(x=10, y=0.000123)
        out = t.render()
        assert "demo" in out
        assert "2.5" in out
        assert "0.000123" in out

    def test_unknown_column_rejected(self):
        t = Table(title="demo", columns=["x"])
        with pytest.raises(ValueError):
            t.add_row(z=1)

    def test_missing_column_renders_empty(self):
        t = Table(title="demo", columns=["x", "y"])
        t.add_row(x=1)
        assert t.render()  # no crash

    def test_notes_rendered(self):
        t = Table(title="demo", columns=["x"])
        t.add_note("shape only")
        assert "note: shape only" in t.render()

    def test_empty_table_renders_header(self):
        t = Table(title="empty", columns=["col"])
        assert "col" in t.render()

    def test_float_formatting(self):
        t = Table(title="f", columns=["v"])
        t.add_row(v=0.0)
        t.add_row(v=123456.0)
        out = t.render()
        assert "0" in out
        assert "1.23e+05" in out

    def test_emit_prints(self, capsys):
        t = Table(title="emit", columns=["x"])
        t.add_row(x=5)
        t.emit()
        assert "emit" in capsys.readouterr().out

    def test_negative_zero_renders_as_zero(self):
        t = Table(title="nz", columns=["v"])
        t.add_row(v=-0.0)
        out = t.render()
        assert "-0" not in out
        assert t._format_cell(-0.0) == "0"

    def test_small_negatives_keep_their_sign(self):
        t = Table(title="nz", columns=["v"])
        assert t._format_cell(-1e-05) == "-1e-05"
        assert t._format_cell(-0.5) == "-0.5"

    def test_rows_keep_mapping_access(self):
        t = Table(title="demo", columns=["x", "y"])
        t.add_row(x=1, y=2)
        row = t.rows[0]
        assert isinstance(row, Row)
        assert row["x"] == 1
        assert row.get("missing", "d") == "d"
        assert "y" in row and "z" not in row


class TestRowTelemetry:
    def test_disabled_rows_have_empty_telemetry(self):
        t = Table(title="demo", columns=["x"])
        t.add_row(x=1)
        assert t.rows[0].telemetry == {}

    def test_enabled_rows_record_deltas_and_events(self):
        obs.reset_metrics()
        with obs.enabled(ListSink()) as sink:
            t = Table(title="demo", columns=["x"])
            obs.count("demo.work", 3)
            t.add_row(x=1)
            obs.count("demo.work", 4)
            t.add_row(x=2)
        obs.reset_metrics()
        first, second = t.rows
        assert first.telemetry["metrics"] == {"demo.work": 3}
        assert second.telemetry["metrics"] == {"demo.work": 4}
        assert first.telemetry["wall_s"] >= 0.0
        events = sink.of_kind("row")
        assert [e["values"] for e in events] == [{"x": 1}, {"x": 2}]
        assert events[0]["table"] == "demo"

    def test_row_events_carry_span_path(self):
        obs.reset_metrics()
        with obs.enabled(ListSink()) as sink:
            with obs.span("experiment.e1"):
                t = Table(title="demo", columns=["x"])
                t.add_row(x=1)
        obs.reset_metrics()
        (event,) = sink.of_kind("row")
        assert event["span_path"] == "experiment.e1"


class TestSweep:
    def test_merges_config_and_result(self):
        rows = sweep(
            [{"a": 1}, {"a": 2}],
            lambda a: {"square": a * a},
        )
        assert rows == [{"a": 1, "square": 1}, {"a": 2, "square": 4}]

    def test_empty_sweep(self):
        assert sweep([], lambda **kw: {}) == []
