"""Tests for repro.obs.bounds: specs, registry, monitor, exponent fits."""

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import bounds
from repro.obs.bounds import (
    BoundMonitor,
    BoundSpec,
    fit_loglog_slope,
    get_spec,
    register,
    registered_specs,
)
from repro.obs.sink import ListSink


def _spec(**overrides):
    base = dict(
        name="test.spec",
        theorem="Thm T",
        column="queries",
        direction="upper",
        predicted=lambda p: p["m"] / p["eps"],
        formula="m/eps",
        slack=2.0,
        requires=("m", "eps"),
    )
    base.update(overrides)
    return BoundSpec(**base)


@pytest.fixture
def scratch_registry():
    """Register into the real registry, restore it afterwards."""
    before = dict(bounds._REGISTRY)
    yield bounds._REGISTRY
    bounds._REGISTRY.clear()
    bounds._REGISTRY.update(before)


class TestBoundSpec:
    def test_direction_validated(self):
        with pytest.raises(ObsError):
            _spec(direction="sideways")

    def test_slack_below_one_rejected(self):
        with pytest.raises(ObsError):
            _spec(slack=0.5)

    def test_lower_semantics(self):
        spec = _spec(direction="lower")
        assert spec.check(measured=50.0, predicted=100.0)  # 50*2 >= 100
        assert not spec.check(measured=49.0, predicted=100.0)

    def test_upper_semantics(self):
        spec = _spec(direction="upper")
        assert spec.check(measured=200.0, predicted=100.0)  # <= 100*2
        assert not spec.check(measured=201.0, predicted=100.0)

    def test_band_semantics(self):
        spec = _spec(direction="band")
        assert spec.check(measured=50.0, predicted=100.0)
        assert spec.check(measured=200.0, predicted=100.0)
        assert not spec.check(measured=49.0, predicted=100.0)
        assert not spec.check(measured=201.0, predicted=100.0)


class TestRegistry:
    def test_default_paper_specs_registered(self):
        names = {spec.name for spec in registered_specs()}
        assert {
            "thm11.sketch_bits",
            "thm12.sketch_bits",
            "thm13.queries",
            "thm57.search_queries",
        } <= names

    def test_duplicate_name_raises(self, scratch_registry):
        register(_spec(name="test.dup"))
        with pytest.raises(ObsError):
            register(_spec(name="test.dup"))

    def test_replace_allows_overwrite(self, scratch_registry):
        register(_spec(name="test.dup", slack=2.0))
        register(_spec(name="test.dup", slack=4.0), replace=True)
        assert get_spec("test.dup").slack == 4.0

    def test_unknown_name_raises(self):
        with pytest.raises(ObsError):
            get_spec("no.such.spec")

    def test_envelope_formulas(self):
        p = {"n": 10.0, "beta": 4.0, "eps": 0.5, "m": 100.0, "k": 2.0}
        assert get_spec("thm11.sketch_bits").predicted(p) == pytest.approx(40.0)
        assert get_spec("thm12.sketch_bits").predicted(p) == pytest.approx(160.0)
        # min(2m, m/(eps^2 k)) = min(200, 200) = 200
        assert get_spec("thm13.queries").predicted(p) == pytest.approx(200.0)


class TestFitLoglogSlope:
    def test_recovers_exponent(self):
        points = [(x, 3.0 * x**-2.0) for x in (0.1, 0.2, 0.4)]
        assert fit_loglog_slope(points) == pytest.approx(-2.0)

    def test_positive_exponent(self):
        points = [(x, 0.5 * x**1.5) for x in (1.0, 2.0, 8.0)]
        assert fit_loglog_slope(points) == pytest.approx(1.5)

    def test_single_x_raises(self):
        with pytest.raises(ObsError):
            fit_loglog_slope([(2.0, 1.0), (2.0, 3.0)])

    def test_nonpositive_points_ignored(self):
        points = [(x, 2.0 * x) for x in (1.0, 2.0)] + [(4.0, 0.0)]
        assert fit_loglog_slope(points) == pytest.approx(1.0)


class TestBoundMonitor:
    def test_record_pass_and_violation(self, scratch_registry):
        register(_spec(name="test.upper", direction="upper"))
        monitor = BoundMonitor(emit_events=False)
        ok = monitor.record("test.upper", measured=150.0, m=100.0, eps=1.0)
        bad = monitor.record("test.upper", measured=500.0, m=100.0, eps=1.0)
        assert ok.status == "pass" and bad.status == "violation"
        assert bad.ratio == pytest.approx(5.0)
        assert monitor.violations == [bad]

    def test_missing_required_params_skips(self, scratch_registry):
        register(_spec(name="test.req"))
        monitor = BoundMonitor(emit_events=False)
        check = monitor.record("test.req", measured=1.0, m=100.0)  # no eps
        assert check.status == "skipped"
        assert "eps" in check.detail["reason"]

    def test_observe_row_value_quantity(self, scratch_registry):
        register(_spec(name="test.val"))
        monitor = BoundMonitor(emit_events=False)
        checks = monitor.observe_row(
            ["test.val"], {"queries": 120.0, "m": 100.0, "eps": 1.0},
            table="T",
        )
        (check,) = checks
        assert check.status == "pass"
        assert check.table == "T"
        assert check.measured == 120.0

    def test_row_without_the_column_skips(self, scratch_registry):
        register(_spec(name="test.absent", column="mean_bits"))
        monitor = BoundMonitor(emit_events=False)
        (check,) = monitor.observe_row(
            ["test.absent"], {"queries": 5.0, "m": 1.0, "eps": 1.0}
        )
        assert check.status == "skipped"
        assert check.measured is None
        assert "'mean_bits'" in check.detail["reason"]
        assert monitor.summary_lines() == [
            f"bound_check test.absent skipped: {check.detail['reason']}"
        ]

    def test_finish_fits_sweep_exponent(self, scratch_registry):
        register(
            _spec(
                name="test.sweep",
                direction="upper",
                predicted=lambda p: p["m"] / (p["eps"] ** 2),
                sweep="eps",
                exponent_tol=0.25,
            )
        )
        monitor = BoundMonitor(emit_events=False)
        for eps in (0.2, 0.4, 0.8):
            monitor.record(
                "test.sweep", measured=2.0 * eps**-2, m=1.0, eps=eps
            )
        monitor.finish()
        fits = [c for c in monitor.checks if c.kind == "fit"]
        (fit,) = fits
        assert fit.status == "pass"
        assert fit.detail["empirical_exponent"] == pytest.approx(-2.0)
        assert fit.detail["envelope_exponent"] == pytest.approx(-2.0)

    def test_finish_flags_wrong_exponent(self, scratch_registry):
        register(
            _spec(
                name="test.flat",
                direction="upper",
                predicted=lambda p: p["m"] / (p["eps"] ** 2),
                sweep="eps",
                exponent_tol=0.5,
                slack=1e9,
            )
        )
        monitor = BoundMonitor(emit_events=False)
        for eps in (0.2, 0.4, 0.8):
            monitor.record("test.flat", measured=100.0, m=1.0, eps=eps)
        monitor.finish()
        (fit,) = [c for c in monitor.checks if c.kind == "fit"]
        assert fit.status == "violation"
        assert fit.detail["exponent_gap"] == pytest.approx(2.0)

    def test_finish_skips_degenerate_sweep(self, scratch_registry):
        register(_spec(name="test.deg", sweep="eps", slack=1e9))
        monitor = BoundMonitor(emit_events=False)
        monitor.record("test.deg", measured=1.0, m=1.0, eps=0.5)
        monitor.finish()
        (fit,) = [c for c in monitor.checks if c.kind == "fit"]
        assert fit.status == "skipped"

    def test_sweep_override_groups_by_other_variable(self, scratch_registry):
        register(
            _spec(
                name="test.k",
                direction="upper",
                predicted=lambda p: p["m"] / p["k"],
                requires=("m", "k"),
                sweep="eps",
            )
        )
        monitor = BoundMonitor(emit_events=False)
        for k in (2.0, 4.0, 8.0):
            monitor.observe_row(
                [("test.k", {"sweep": "k"})],
                {"queries": 10.0 / k, "m": 10.0, "k": k},
                table="T",
            )
        monitor.finish()
        (fit,) = [c for c in monitor.checks if c.kind == "fit"]
        assert fit.status == "pass"
        assert fit.detail["sweep"] == "k"

    def test_summary_lines_cover_all_checks(self, scratch_registry):
        register(_spec(name="test.sum"))
        monitor = BoundMonitor(emit_events=False)
        monitor.record("test.sum", measured=50.0, m=100.0, eps=1.0)
        monitor.finish()
        lines = monitor.summary_lines()
        assert len(lines) == len(monitor.checks)
        assert any("test.sum" in line for line in lines)

    def test_emits_bound_check_events(self, scratch_registry):
        register(_spec(name="test.emit"))
        with obs.enabled(ListSink()) as sink:
            monitor = BoundMonitor()
            monitor.record("test.emit", measured=1.0, m=100.0, eps=1.0)
            monitor.finish()
        checks = sink.of_kind("bound_check")
        assert len(checks) == len(monitor.checks)
        row = checks[0]
        assert row["spec"] == "test.emit"
        assert row["kind"] == "row"
        assert row["status"] == "pass"
        assert row["direction"] == "upper"


class TestInstallation:
    def test_install_uninstall_active(self):
        monitor = BoundMonitor(emit_events=False)
        assert not bounds.active()
        bounds.install(monitor)
        try:
            assert bounds.active()
        finally:
            bounds.uninstall(monitor)
        assert not bounds.active()
        bounds.uninstall(monitor)  # absent is a no-op

    def test_monitoring_context(self, scratch_registry):
        register(_spec(name="test.ctx"))
        with bounds.monitoring() as monitor:
            bounds.observe_row(
                ["test.ctx"], {"queries": 1.0, "m": 100.0, "eps": 1.0}
            )
        assert not bounds.active()
        assert monitor.checks[0].status == "pass"

    def test_harness_table_reports_rows(self, scratch_registry):
        from repro.experiments.harness import Table

        register(_spec(name="test.table"))
        with bounds.monitoring() as monitor:
            table = Table(
                title="T",
                columns=["eps", "queries"],
                meta={"m": 100.0},
                bounds=["test.table"],
            )
            table.add_row(eps=1.0, queries=120.0)
            table.add_row(eps=1.0, queries=999.0)
        statuses = [c.status for c in monitor.checks]
        assert statuses == ["pass", "violation"]
        # meta merged with the row's printed values
        assert monitor.checks[0].params["m"] == 100.0
        assert monitor.checks[0].table == "T"

    def test_harness_without_monitor_is_silent(self, scratch_registry):
        from repro.experiments.harness import Table

        register(_spec(name="test.quiet"))
        table = Table(
            title="T", columns=["queries"], meta={"m": 1.0, "eps": 1.0},
            bounds=["test.quiet"],
        )
        table.add_row(queries=5.0)  # no monitor installed: no error, no checks
