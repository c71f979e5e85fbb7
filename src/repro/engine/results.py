"""Unified aggregation over completed trials.

A :class:`ResultSet` wraps the ordered list of
:class:`~repro.engine.trial.TrialResult` an executor returned and offers
the operations every experiment's reporting needs:

* selection — :meth:`where` / :meth:`group_by` over grid parameters;
* sample series — :meth:`samples`, :meth:`percentile`, :meth:`cdf`,
  :meth:`histogram` (lists concatenated across trials);
* scalar reduction — :meth:`total`, :meth:`mean`;
* reporting — a generic :meth:`format_table` plus JSON serialization
  (:meth:`to_json` / :meth:`from_json`) so any figure can be archived as
  machine-readable results and reloaded later.

The text renderers every figure and scenario table uses,
:func:`format_table` and :func:`format_cdf`, live here too.

Aggregation is always performed in trial-index order, so a parallel run
aggregates to exactly the same numbers as a serial one.

Paper cross-reference: §7 — the reductions here are the paper's three
reporting shapes (rates over a window for Fig 10/§7.5, percentile bars
for Figs 7-8, CDFs for Figs 6/9/11) applied over merged trials.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.trial import TrialResult
from repro.sim.metrics import CdfSeries, Histogram, percentile


class ResultSet:
    """An ordered collection of trial results with aggregation helpers."""

    def __init__(self, trials: Sequence[TrialResult], experiment: str = "") -> None:
        self.trials: List[TrialResult] = sorted(trials, key=lambda t: t.spec.index)
        self.experiment = experiment or (
            self.trials[0].spec.experiment if self.trials else ""
        )

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self) -> Iterator[TrialResult]:
        return iter(self.trials)

    # ------------------------------------------------------------------
    # Selection over grid parameters
    # ------------------------------------------------------------------
    def where(self, **params: Any) -> "ResultSet":
        """Trials whose grid point matches every given parameter."""
        kept = [
            t
            for t in self.trials
            if all(t.spec.params.get(k) == v for k, v in params.items())
        ]
        return ResultSet(kept, experiment=self.experiment)

    def axis(self, name: str) -> List[Any]:
        """Ordered distinct values of one grid parameter."""
        seen: List[Any] = []
        for t in self.trials:
            value = t.spec.params.get(name)
            if value not in seen:
                seen.append(value)
        return seen

    def group_by(self, name: str) -> "Dict[Any, ResultSet]":
        """Split into sub-sets per distinct value of one grid parameter."""
        return {value: self.where(**{name: value}) for value in self.axis(name)}

    # ------------------------------------------------------------------
    # Measurement access
    # ------------------------------------------------------------------
    def samples(self, name: str) -> List[float]:
        """All values recorded under ``name``, lists flattened, in trial order."""
        out: List[float] = []
        for t in self.trials:
            value = t.measurements.get(name)
            if value is None:
                continue
            if isinstance(value, (list, tuple)):
                out.extend(value)
            else:
                out.append(value)
        return out

    def scalars(self, name: str) -> List[Any]:
        """One value per trial that recorded ``name`` (no flattening)."""
        return [
            t.measurements[name] for t in self.trials if name in t.measurements
        ]

    def total(self, name: str) -> float:
        return sum(self.scalars(name))

    def mean(self, name: str) -> float:
        values = self.samples(name)
        if not values:
            raise ValueError(f"no samples recorded under {name!r}")
        return sum(values) / len(values)

    def percentile(self, name: str, pct: float) -> float:
        return percentile(self.samples(name), pct)

    def cdf(self, name: str, series_name: str = "") -> CdfSeries:
        return CdfSeries(series_name or name, self.samples(name))

    def histogram(self, name: str, series_name: str = "") -> Histogram:
        hist = Histogram(series_name or name)
        hist.extend(self.samples(name))
        return hist

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    @property
    def total_wall_seconds(self) -> float:
        """Summed per-trial CPU-side wall clock (serial-equivalent cost)."""
        return sum(t.wall_seconds for t in self.trials)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def format_table(self, title: str = "") -> str:
        """Generic one-row-per-grid-point summary table.

        Experiments ship their own figure-specific tables; this renderer
        is the fallback for ad-hoc sweeps: grid axes as leading columns,
        then each measurement reduced to a mean (scalars) or a median over
        the concatenated samples (lists).
        """
        axes = []
        for t in self.trials:
            for name in t.spec.params:
                if name not in axes:
                    axes.append(name)
        measurement_names: List[str] = []
        for t in self.trials:
            for name in t.measurements:
                if name not in measurement_names:
                    measurement_names.append(name)

        def reduce(subset: "ResultSet", name: str) -> object:
            values = subset.samples(name)
            numeric = [v for v in values if isinstance(v, (int, float))]
            if not numeric:
                return "-"
            if any(
                isinstance(t.measurements.get(name), (list, tuple))
                for t in subset.trials
            ):
                return percentile(numeric, 50)
            return sum(numeric) / len(numeric)

        points: List[Tuple[Any, ...]] = []
        for t in self.trials:
            key = tuple(t.spec.params.get(a) for a in axes)
            if key not in points:
                points.append(key)
        rows = []
        for key in points:
            subset = self.where(**{a: v for a, v in zip(axes, key) if v is not None})
            rows.append(
                tuple(key)
                + tuple(reduce(subset, name) for name in measurement_names)
                + (len(subset),)
            )
        headers = list(axes) + measurement_names + ["trials"]
        return format_table(
            headers, rows, title=title or f"{self.experiment} — sweep summary"
        )

    # ------------------------------------------------------------------
    # JSON serialization
    # ------------------------------------------------------------------
    def to_json_dict(self, include_timing: bool = True) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "trials": [t.to_json_dict(include_timing) for t in self.trials],
        }

    def to_json(self, include_timing: bool = True, indent: Optional[int] = None) -> str:
        return json.dumps(
            self.to_json_dict(include_timing), indent=indent, sort_keys=True
        )

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "ResultSet":
        trials = [TrialResult.from_json_dict(t) for t in data.get("trials", [])]
        return cls(trials, experiment=data.get("experiment", ""))

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        return cls.from_json_dict(json.loads(text))

    def __repr__(self) -> str:
        return f"ResultSet({self.experiment!r}, trials={len(self.trials)})"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Monospace table with right-aligned numeric columns."""
    str_rows: List[List[str]] = []
    for row in rows:
        str_rows.append([_cell(value) for value in row])
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_cdf(name: str, points: Sequence[Tuple[float, float]], max_points: int = 12) -> str:
    """Compact text rendering of a CDF: value@fraction pairs."""
    if not points:
        return f"{name}: (empty)"
    step = max(1, len(points) // max_points)
    sampled = points[::step]
    if sampled[-1] != points[-1]:
        sampled = list(sampled) + [points[-1]]
    pairs = "  ".join(f"{v:.0f}@{f * 100:.0f}%" for v, f in sampled)
    return f"{name}: {pairs}"
