"""Trial primitives for the shared experiment engine.

A *trial* is the unit of work every experiment decomposes into: build one
isolated simulated world from a seed and a point in a parameter grid, run
a scenario, and return a flat dictionary of measurements.  Because a trial
owns its :class:`~repro.sim.kernel.Simulator` end to end, trials are
independent of each other — which is what lets the executor in
:mod:`repro.engine.parallel` fan them out across processes while keeping
results seed-for-seed identical to a serial run.

Measurement values must be JSON-serializable: scalars (int/float/str/bool)
or flat lists of them.  Lists are treated as *sample series* by the
aggregation layer (concatenated across trials); scalars are collected and
reduced (summed or averaged).

Paper cross-reference: §7 methodology — one trial is one "run" of a §7
experiment (or of a :mod:`repro.scenarios` timeline) at one parameter
point under one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping

from repro.net.backends.wallclock import perf_seconds

#: What a trial function returns: measurement name -> scalar or sample list.
Measurements = Dict[str, Any]

#: A trial function: pure apart from its spec; must be a module-level
#: callable so the parallel executor can ship it to worker processes.
TrialFn = Callable[["TrialSpec"], Measurements]


@dataclass(frozen=True)
class TrialSpec:
    """One schedulable unit of experiment work.

    Attributes:
        experiment: name of the experiment this trial belongs to ("fig7").
        index: stable ordinal within the expanded sweep; aggregation
            happens in index order so serial and parallel runs agree.
        seed: the derived seed this trial's world is built from.
        base_seed: the user-facing seed the derivation started from
            (useful for grouping seed replicas).
        params: this trial's point in the parameter grid.
        context: experiment-level configuration shared by every trial
            (typically the experiment's config dataclass).  Must be
            picklable; it is *not* included in JSON serialization.
    """

    experiment: str
    index: int
    seed: int
    base_seed: int
    params: Mapping[str, Any] = field(default_factory=dict)
    context: Any = None

    def __getitem__(self, name: str) -> Any:
        return self.params[name]


@dataclass
class TrialResult:
    """A completed trial: its spec, measurements, and wall-clock cost."""

    spec: TrialSpec
    measurements: Measurements
    wall_seconds: float

    def to_json_dict(self, include_timing: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "experiment": self.spec.experiment,
            "index": self.spec.index,
            "seed": self.spec.seed,
            "base_seed": self.spec.base_seed,
            "params": dict(self.spec.params),
            "measurements": self.measurements,
        }
        if include_timing:
            out["wall_seconds"] = self.wall_seconds
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "TrialResult":
        spec = TrialSpec(
            experiment=data["experiment"],
            index=data["index"],
            seed=data["seed"],
            base_seed=data["base_seed"],
            params=dict(data.get("params", {})),
        )
        return cls(
            spec=spec,
            measurements=dict(data.get("measurements", {})),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
        )


def run_trial(fn: TrialFn, spec: TrialSpec) -> TrialResult:
    """Execute one trial, timing it.  Runs in the caller's process."""
    started = perf_seconds()
    measurements = fn(spec)
    elapsed = perf_seconds() - started
    if not isinstance(measurements, dict):
        raise TypeError(
            f"trial function for {spec.experiment!r} returned "
            f"{type(measurements).__name__}, expected a measurements dict"
        )
    return TrialResult(spec=spec, measurements=measurements, wall_seconds=elapsed)
