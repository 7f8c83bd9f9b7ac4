"""Shared experiment harness: parameter sweeps and aligned table output.

Every experiment (:mod:`repro.experiments.tables`) regenerates one
paper artifact by sweeping parameters, collecting one :class:`Row` per
configuration, and printing a fixed-width table.  Keeping the rendering
here means every experiment reports in the same format; ``make tables``
writes the run's output to ``docs/results.txt``, which EXPERIMENTS.md
quotes.

When the observability switch (:mod:`repro.obs`) is on, each
:meth:`Table.add_row` also attaches a telemetry record to the row — the
wall time and global-metric delta since the previous row of the same
table — and mirrors it to the active sink as a ``row`` event, so
``telemetry.jsonl`` carries per-configuration resource accounting next
to the printed numbers.  A table filled from :func:`sweep` runs every
configuration before its first row, so that row's record carries the
whole sweep's wall time and metrics.

Tables may additionally declare which theorem envelopes their rows
certify (``bounds=["thm13.queries"]``) together with the construction
parameters that stay constant across the sweep (``meta={"m": m,
"k": k}``); every :meth:`Table.add_row` then reports the merged
``meta + values`` parameters to any installed
:class:`repro.obs.bounds.BoundMonitor`, which reads each spec's
measured value from the row's printed column, checks it against the
envelope and emits a ``bound_check`` event.  Certification therefore
does not depend on the observability switch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs import STATE as _OBS
from repro.obs import bounds as _bounds
from repro.obs import current_path as _obs_current_path
from repro.obs import event as _obs_event
from repro.obs import delta_since as _obs_delta_since
from repro.obs import snapshot as _obs_snapshot


@dataclass
class Row:
    """One result row: the printed values plus recorded telemetry.

    ``telemetry`` is empty when observability is off (or for the first
    row added before a baseline exists); otherwise it holds ``wall_s``
    and the ``metrics`` delta attributable to producing this row.
    ``Row`` keeps dict-style read access (``row["col"]``, ``row.get``)
    so existing callers that treated rows as mappings keep working.
    """

    values: Dict[str, Any]
    telemetry: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """``values.get`` passthrough."""
        return self.values.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def __contains__(self, key: str) -> bool:
        return key in self.values


@dataclass
class Table:
    """A fixed-width experiment table.

    ``meta`` holds sweep-constant construction parameters (``n``, ``m``,
    ``beta``, ``k``, ...) that are not printed columns but are needed by
    bound certification; it rides along on every ``row`` telemetry
    event.  ``bounds`` names the registered
    :class:`repro.obs.bounds.BoundSpec` entries each row is checked
    against (entries may be ``(name, {"sweep": "k"})`` to override the
    exponent-fit sweep variable for this table).
    """

    title: str
    columns: Sequence[str]
    rows: List[Row] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)
    bounds: Sequence[Any] = ()
    #: (perf_counter, metrics snapshot) at the last row boundary.
    _mark: Optional[Tuple[float, Dict[str, float]]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if _OBS.enabled:
            self._mark = (time.perf_counter(), _obs_snapshot())

    def add_row(self, **values: Any) -> None:
        """Append one result row; unknown columns are rejected."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")
        row = Row(values=values)
        if _OBS.enabled:
            now = time.perf_counter()
            snap = _obs_snapshot()
            if self._mark is not None:
                row.telemetry = {
                    "wall_s": now - self._mark[0],
                    "metrics": _obs_delta_since(self._mark[1]),
                }
            self._mark = (now, snap)
            extra: Dict[str, Any] = {}
            if self.meta:
                extra["meta"] = self.meta
            _obs_event(
                "row",
                table=self.title,
                values=values,
                span_path=_obs_current_path(),
                **extra,
                **row.telemetry,
            )
        if self.bounds and _bounds.active():
            _bounds.observe_row(
                self.bounds, {**self.meta, **values}, table=self.title
            )
        self.rows.append(row)

    def add_note(self, note: str) -> None:
        """Attach a footnote printed under the table."""
        self.notes.append(note)

    def _format_cell(self, value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.01:
                text = f"{value:.3g}"
            else:
                text = f"{value:.3f}".rstrip("0").rstrip(".")
            # Rounding can collapse a small negative to "-0"; a signed
            # zero in one row of an otherwise clean column reads as a
            # formatting bug, so normalise it away.
            if float(text) == 0:
                return "0"
            return text
        return str(value)

    def render(self) -> str:
        """The table as fixed-width text."""
        header = list(self.columns)
        body = [
            [self._format_cell(row.get(col, "")) for col in header]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def emit(self) -> None:
        """Print the rendered table (``run_all`` calls this once per table)."""
        print()
        print(self.render())


def sweep(
    configurations: Iterable[Mapping[str, Any]],
    runner: Callable[..., Mapping[str, Any]],
    jobs: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Run ``runner(**config)`` per configuration, merging config + result.

    ``jobs`` fans configurations out over worker processes via
    :class:`repro.parallel.TrialPool`; results return in configuration
    order and worker telemetry merges deterministically, so any worker
    count produces the same merged list a serial sweep does.  Callers
    whose runner draws from a shared generator must keep the default
    serial path (a forked runner would advance a *copy* of the
    generator) — the repo's sweeps pass explicit per-config seeds.
    """
    from repro.parallel import TrialPool

    configurations = [dict(config) for config in configurations]

    def run_one(config: Dict[str, Any]) -> Dict[str, Any]:
        outcome = runner(**config)
        merged = dict(config)
        merged.update(outcome)
        return merged

    return TrialPool(jobs=jobs).map(run_one, configurations)
