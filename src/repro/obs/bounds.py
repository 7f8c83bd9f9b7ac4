"""Bound certification: measured resources vs. the paper's predicted curves.

Every resource the reproduced theorems price (sketch ``size_bits``,
protocol wire bits, oracle query charges) is printed by some experiment
table.  This module compares those printed columns with the theorems'
*curves*:

* :class:`BoundSpec` — one declarative entry per certified bound: the
  theorem tag, the printed column that carries the measured value, the
  predicted envelope as a function of the construction parameters
  ``(n, m, beta, eps, k, ...)``, the direction (``lower`` / ``upper`` /
  ``band``), and a multiplicative ``slack`` absorbing the constants and
  log factors hidden inside Õ/Ω̃;
* a module-level **registry** (:func:`register` / :func:`get_spec`)
  pre-populated with the Theorem 1.1, 1.2, 1.3 and 5.7 envelopes;
* :class:`BoundMonitor` — installed for a run, it receives one
  observation per experiment-table row (via the
  :class:`~repro.experiments.harness.Table` ``bounds=...`` hook),
  checks it against the spec immediately, emits a structured
  ``bound_check`` event, and at :meth:`~BoundMonitor.finish` fits the
  empirical scaling exponent of each parameter sweep against the
  envelope's exponent on the same points.

``python -m repro.experiments.run_all`` installs a monitor on every run
and prints its verdicts; ``--strict-bounds`` exits non-zero when any
check reports ``violation`` — the Ω̃(n·√β/ε) / Ω(n·β/ε²) /
Θ̃(m/(ε²k)) claims are certified by machinery on every run instead of
by rereading tables.

Direction semantics (``measured`` vs ``predicted`` envelope ``P``):

* ``lower``  — a lower bound on the resource: pass iff
  ``measured >= P / slack``;
* ``upper``  — an upper bound: pass iff ``measured <= P * slack``;
* ``band``   — a tight Θ̃ characterization: pass iff
  ``P / slack <= measured <= P * slack``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ObsError
from repro.obs import sink as _sink

#: Allowed :attr:`BoundSpec.direction` values.
DIRECTIONS = ("lower", "upper", "band")

#: A predicted envelope: params mapping -> bound value.
Predictor = Callable[[Mapping[str, float]], float]

#: A table's ``bounds=`` entry: a spec name, or ``(name, overrides)``
#: where overrides may replace ``sweep`` for that table's fit.
BoundRef = Union[str, Tuple[str, Mapping[str, Any]]]


@dataclass(frozen=True)
class BoundSpec:
    """One certified bound: envelope, direction, and declared slack.

    ``column`` names the printed table column that carries the measured
    value (E1b's ``mean_bits``, E3's ``queries``); a row without that
    column is skipped.

    ``slack`` is multiplicative and declared, not fitted: it is the
    repository's stated budget for the constants and polylog factors
    the theorem statements hide (see EXPERIMENTS.md, "Bound
    certification").
    """

    name: str
    theorem: str
    column: str
    direction: str
    predicted: Predictor
    formula: str
    slack: float = 8.0
    #: Parameter whose sweep the exponent fit runs over (None disables).
    sweep: Optional[str] = "eps"
    #: |empirical - envelope| log-log slope tolerance for the fit.
    exponent_tol: float = 1.0
    #: Parameters the predictor needs; missing ones skip the check.
    requires: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ObsError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )
        if self.slack < 1.0:
            raise ObsError(f"slack must be >= 1, got {self.slack}")

    def check(self, measured: float, predicted: float) -> bool:
        """Whether ``measured`` honors the envelope within the slack."""
        if self.direction == "lower":
            return measured * self.slack >= predicted
        if self.direction == "upper":
            return measured <= predicted * self.slack
        return predicted / self.slack <= measured <= predicted * self.slack


@dataclass(frozen=True)
class SpaceBoundSpec(BoundSpec):
    """A bound over *measured* resident bytes, certified in bits.

    The column holds bytes (:func:`repro.obs.memory.deep_sizeof`
    measures what the interpreter actually holds) while the paper's
    envelopes price bits, so the measured value is multiplied by
    ``scale`` (8 bits/byte) before the comparison — ``measured`` /
    ``predicted`` / ``ratio`` on the emitted ``bound_check`` stay
    unit-consistent, with the raw bytes preserved in the event as
    ``measured_raw``.  Direction and ``slack`` semantics are exactly
    :class:`BoundSpec`'s.
    """

    #: Multiplier applied to the measured value before the check
    #: (bytes -> bits).
    scale: float = 8.0


# ----------------------------------------------------------------------
# The registry, pre-populated with the paper's envelopes.
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, BoundSpec] = {}


def register(spec: BoundSpec, replace: bool = False) -> BoundSpec:
    """Add a spec to the registry; re-registering a name raises."""
    if not replace and spec.name in _REGISTRY:
        raise ObsError(f"bound spec {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a spec; absent is a no-op."""
    _REGISTRY.pop(name, None)


def get_spec(name: str) -> BoundSpec:
    """The registered spec called ``name``; unknown names raise."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ObsError(
            f"unknown bound spec {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return spec


def registered_specs() -> Tuple[BoundSpec, ...]:
    """All registered specs, in registration order."""
    return tuple(_REGISTRY.values())


def _thm11_envelope(p: Mapping[str, float]) -> float:
    return p["n"] * math.sqrt(p["beta"]) / p["eps"]


def _thm12_envelope(p: Mapping[str, float]) -> float:
    return p["n"] * p["beta"] / (p["eps"] * p["eps"])


def _thm13_envelope(p: Mapping[str, float]) -> float:
    return min(2.0 * p["m"], p["m"] / (p["eps"] * p["eps"] * p["k"]))


#: Theorem 1.1 — any valid (1±ε) for-each sketch of a β-balanced n-node
#: digraph carries Ω̃(n·√β/ε) bits; E1b's mean sketch size per game
#: round must clear the envelope from above.
THM11_SKETCH_BITS = register(
    BoundSpec(
        name="thm11.sketch_bits",
        theorem="Thm 1.1",
        column="mean_bits",
        direction="lower",
        predicted=_thm11_envelope,
        formula="n*sqrt(beta)/eps",
        slack=8.0,
        sweep="eps",
        exponent_tol=1.0,
        requires=("n", "beta", "eps"),
    )
)

#: Theorem 1.2 — any valid (1±ε) for-all sketch carries Ω(n·β/ε²) bits.
THM12_SKETCH_BITS = register(
    BoundSpec(
        name="thm12.sketch_bits",
        theorem="Thm 1.2",
        column="mean_bits",
        direction="lower",
        predicted=_thm12_envelope,
        formula="n*beta/eps^2",
        slack=8.0,
        sweep="eps",
        exponent_tol=1.0,
        requires=("n", "beta", "eps"),
    )
)

#: Theorem 1.3 + Lemma 5.8 — VERIFY-GUESS sits on the
#: Θ̃(min{m, m/(ε²k)}) curve: at least the lower bound's envelope over
#: slack, at most the upper bound's envelope times slack.
THM13_QUERIES = register(
    BoundSpec(
        name="thm13.queries",
        theorem="Thm 1.3",
        column="queries",
        direction="band",
        predicted=_thm13_envelope,
        formula="min(2m, m/(eps^2 k))",
        slack=16.0,
        sweep="eps",
        exponent_tol=1.0,
        requires=("m", "k", "eps"),
    )
)

#: Theorem 5.7 — the modified search phase costs Õ(m/(ε²k)); the slack
#: absorbs the hidden Θ(log n) oversampling and binary-search factors.
#: No exponent fit: the search phase runs at the fixed accuracy β₀ (the
#: ε dependence of Thm 5.7 lives in the final refined estimate, which at
#: simulation sizes sits in the p=1 sampling clamp — see EXPERIMENTS.md
#: E4), so the measured curve is deliberately flat in ε and only the
#: per-row upper-envelope check is meaningful.
THM57_SEARCH_QUERIES = register(
    BoundSpec(
        name="thm57.search_queries",
        theorem="Thm 5.7",
        column="modified_search",
        direction="upper",
        predicted=_thm13_envelope,
        formula="min(2m, m/(eps^2 k))",
        slack=32.0,
        sweep=None,
        requires=("m", "k", "eps"),
    )
)


# ----------------------------------------------------------------------
# The monitor.
# ----------------------------------------------------------------------


@dataclass
class BoundCheck:
    """One emitted ``bound_check`` result (row- or fit-level)."""

    spec: str
    theorem: str
    kind: str  # "row" | "fit"
    status: str  # "pass" | "violation" | "skipped"
    table: Optional[str] = None
    measured: Optional[float] = None
    predicted: Optional[float] = None
    ratio: Optional[float] = None
    params: Dict[str, Any] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_event(self) -> Dict[str, Any]:
        """The JSONL payload (sans the ``event`` discriminator)."""
        record: Dict[str, Any] = {
            "spec": self.spec,
            "theorem": self.theorem,
            "kind": self.kind,
            "status": self.status,
        }
        if self.table is not None:
            record["table"] = self.table
        if self.measured is not None:
            record["measured"] = self.measured
        if self.predicted is not None:
            record["predicted"] = self.predicted
        if self.ratio is not None:
            record["ratio"] = self.ratio
        if self.params:
            record["params"] = dict(self.params)
        record.update(self.detail)
        return record


def fit_loglog_slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    The empirical scaling exponent of a sweep: ``y ~ x^slope``.  Needs
    at least two distinct positive ``x`` values (raises otherwise), and
    ignores non-positive ``y`` (a zero resource carries no exponent).
    """
    clean = [(x, y) for x, y in points if x > 0 and y > 0]
    xs = {x for x, _ in clean}
    if len(xs) < 2:
        raise ObsError("exponent fit needs >= 2 distinct positive x values")
    lx = [math.log(x) for x, _ in clean]
    ly = [math.log(y) for _, y in clean]
    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    var = sum((u - mean_x) ** 2 for u in lx)
    cov = sum((u - mean_x) * (v - mean_y) for u, v in zip(lx, ly))
    return cov / var


class BoundMonitor:
    """Collects per-row observations and certifies them against specs.

    One monitor is installed per run (see :func:`install` /
    :func:`monitoring`); the experiment harness feeds it a row at a
    time.  Every observation is checked immediately (and emitted as a
    ``bound_check``/``kind=row`` event when telemetry is live);
    :meth:`finish` adds one ``kind=fit`` event per (spec, table) sweep
    comparing the empirical log-log slope against the envelope's slope
    on the same points.
    """

    def __init__(self, emit_events: bool = True):
        self.emit_events = emit_events
        self.checks: List[BoundCheck] = []
        #: (spec name, table, sweep var) -> list of (sweep x, measured,
        #: predicted) points accumulated for the fit.
        self._sweeps: Dict[
            Tuple[str, Optional[str], str], List[Tuple[float, float, float]]
        ] = {}

    # -- recording ------------------------------------------------------

    def observe_row(
        self,
        bounds: Sequence[BoundRef],
        params: Mapping[str, Any],
        table: Optional[str] = None,
    ) -> List[BoundCheck]:
        """Check one experiment row against every referenced spec.

        Each spec reads its measured value from the row's printed
        ``column``; a row without that column is recorded as skipped.
        """
        results = []
        for ref in bounds:
            overrides: Mapping[str, Any] = {}
            if isinstance(ref, tuple):
                ref, overrides = ref
            spec = get_spec(ref)
            measured = params.get(spec.column)
            if measured is None:
                check = self._skip(
                    spec, table, f"column {spec.column!r} not in the row"
                )
            else:
                check = self._finish_row(
                    spec, float(measured), params, table, overrides
                )
            results.append(check)
        return results

    def record(
        self, spec_name: str, measured: float, table: Optional[str] = None,
        **params: float,
    ) -> BoundCheck:
        """Programmatic observation (games and tests call this directly)."""
        spec = get_spec(spec_name)
        return self._finish_row(spec, float(measured), params, table, {})

    def _skip(
        self,
        spec: BoundSpec,
        table: Optional[str],
        reason: str,
        measured: Optional[float] = None,
    ) -> BoundCheck:
        check = BoundCheck(
            spec=spec.name,
            theorem=spec.theorem,
            kind="row",
            status="skipped",
            table=table,
            measured=measured,
            detail={"reason": reason},
        )
        self._push(check)
        return check

    def _finish_row(
        self,
        spec: BoundSpec,
        measured: float,
        params: Mapping[str, Any],
        table: Optional[str],
        overrides: Mapping[str, Any],
    ) -> BoundCheck:
        missing = [key for key in spec.requires if key not in params]
        if missing:
            return self._skip(
                spec, table, f"missing params {missing}", measured
            )
        numeric = {
            key: float(value)
            for key, value in params.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        detail = {
            "direction": spec.direction,
            "slack": spec.slack,
            "formula": spec.formula,
        }
        # SpaceBoundSpec columns hold bytes while the envelope prices
        # bits: rescale before comparing so measured / predicted /
        # ratio stay unit-consistent, keeping the raw value in the event.
        scale = getattr(spec, "scale", 1.0)
        if scale != 1.0:
            detail["measured_raw"] = measured
            detail["scale"] = scale
            measured = measured * scale
        predicted = float(spec.predicted(numeric))
        status = "pass" if spec.check(measured, predicted) else "violation"
        sweep = overrides.get("sweep", spec.sweep)
        check = BoundCheck(
            spec=spec.name,
            theorem=spec.theorem,
            kind="row",
            status=status,
            table=table,
            measured=measured,
            predicted=predicted,
            ratio=measured / predicted if predicted else math.inf,
            params=numeric,
            detail=detail,
        )
        self._push(check)
        if sweep is not None and sweep in numeric:
            self._sweeps.setdefault((spec.name, table, sweep), []).append(
                (numeric[sweep], measured, predicted)
            )
        return check

    def absorb(
        self,
        checks: Sequence[BoundCheck],
        sweeps: Optional[Mapping[Tuple, Sequence[Tuple]]] = None,
    ) -> None:
        """Fold another monitor's recorded state into this one.

        The merge half of parallel execution: a worker process collects
        bound observations into its own monitor and ships
        ``(checks, sweep points)`` back; the parent absorbs them here in
        deterministic chunk order.  Checks are appended *without*
        re-emitting ``bound_check`` events (the worker's events ride
        along in its telemetry-event delta and are re-emitted there);
        sweep fit points extend so :meth:`finish` fits over the union.
        """
        self.checks.extend(checks)
        for key, points in (sweeps or {}).items():
            self._sweeps.setdefault(tuple(key), []).extend(
                tuple(point) for point in points
            )

    def dump_state(self) -> Dict[str, Any]:
        """The picklable ``(checks, sweeps)`` payload for :meth:`absorb`."""
        return {
            "checks": list(self.checks),
            "sweeps": {key: list(points) for key, points in self._sweeps.items()},
        }

    # -- finishing ------------------------------------------------------

    def finish(self) -> List[BoundCheck]:
        """Fit every accumulated sweep; returns all checks of the run."""
        for (name, table, sweep), points in sorted(self._sweeps.items()):
            spec = get_spec(name)
            try:
                empirical = fit_loglog_slope(
                    [(x, measured) for x, measured, _ in points]
                )
                envelope = fit_loglog_slope(
                    [(x, predicted) for x, _, predicted in points]
                )
            except ObsError as exc:
                self._push(
                    BoundCheck(
                        spec=name,
                        theorem=spec.theorem,
                        kind="fit",
                        status="skipped",
                        table=table,
                        detail={"sweep": sweep, "reason": str(exc)},
                    )
                )
                continue
            gap = abs(empirical - envelope)
            self._push(
                BoundCheck(
                    spec=name,
                    theorem=spec.theorem,
                    kind="fit",
                    status="pass" if gap <= spec.exponent_tol else "violation",
                    table=table,
                    detail={
                        "sweep": sweep,
                        "points": len(points),
                        "empirical_exponent": empirical,
                        "envelope_exponent": envelope,
                        "exponent_gap": gap,
                        "tolerance": spec.exponent_tol,
                    },
                )
            )
        self._sweeps.clear()
        return list(self.checks)

    # -- inspection -----------------------------------------------------

    @property
    def violations(self) -> List[BoundCheck]:
        """Checks that failed their declared slack or exponent tolerance."""
        return [c for c in self.checks if c.status == "violation"]

    def summary_lines(self) -> List[str]:
        """Human-readable one-liner per check (run_all prints these)."""
        lines = []
        for check in self.checks:
            if check.kind == "row":
                lines.append(
                    f"bound_check {check.spec} [{check.theorem}] "
                    f"{check.status}: measured={check.measured:.6g} "
                    f"vs {check.detail.get('formula', '?')}"
                    f"={check.predicted:.6g} "
                    f"(ratio {check.ratio:.3g}, "
                    f"{check.detail.get('direction')}, "
                    f"slack {check.detail.get('slack')})"
                    if check.measured is not None
                    and check.predicted is not None
                    else f"bound_check {check.spec} {check.status}: "
                    f"{check.detail.get('reason', '')}"
                )
            else:
                if check.status == "skipped":
                    lines.append(
                        f"bound_fit {check.spec} skipped: "
                        f"{check.detail.get('reason', '')}"
                    )
                else:
                    lines.append(
                        f"bound_fit {check.spec} [{check.theorem}] "
                        f"{check.status}: exponent "
                        f"{check.detail['empirical_exponent']:.3f} vs "
                        f"envelope {check.detail['envelope_exponent']:.3f} "
                        f"over {check.detail['sweep']} "
                        f"({check.detail['points']} points, "
                        f"tol {check.detail['tolerance']})"
                    )
        return lines

    def _push(self, check: BoundCheck) -> None:
        self.checks.append(check)
        if self.emit_events:
            # Not sink.event(): the payload's own "kind" field (row|fit)
            # would collide with that helper's positional parameter.
            _sink.emit({"event": "bound_check", **check.as_event()})


# ----------------------------------------------------------------------
# Installation: the harness reports rows to whatever monitor is active.
# ----------------------------------------------------------------------

_MONITORS: List[BoundMonitor] = []


def install(monitor: BoundMonitor) -> BoundMonitor:
    """Make ``monitor`` receive experiment-row observations."""
    _MONITORS.append(monitor)
    return monitor


def uninstall(monitor: BoundMonitor) -> None:
    """Stop routing observations to ``monitor`` (absent is a no-op)."""
    if monitor in _MONITORS:
        _MONITORS.remove(monitor)


def active() -> bool:
    """Whether any monitor is installed (the harness's cheap guard)."""
    return bool(_MONITORS)


def observe_row(
    bounds: Sequence[BoundRef],
    params: Mapping[str, Any],
    table: Optional[str] = None,
) -> None:
    """Fan one row observation out to every installed monitor."""
    for monitor in _MONITORS:
        monitor.observe_row(bounds, params, table=table)


@contextmanager
def monitoring(
    monitor: Optional[BoundMonitor] = None,
) -> Iterator[BoundMonitor]:
    """Scoped :func:`install`; yields the monitor, uninstalls on exit."""
    monitor = monitor or BoundMonitor()
    install(monitor)
    try:
        yield monitor
    finally:
        uninstall(monitor)
