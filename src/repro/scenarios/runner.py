"""Bridge from scenarios to the shared trial engine (§7 methodology).

One scenario replica is one :class:`~repro.engine.trial.TrialSpec`: the
scenario object rides along as the spec's context, the spec's grid point
(if any) is applied to it, the derived seed builds the world, and
:func:`repro.scenarios.timeline.execute` runs it.  Both entry points are
one :func:`repro.engine.run_sweep` call, so everything the engine
provides — seed replication, ``--jobs`` process fan-out with
seed-for-seed-identical aggregates, and JSON archiving — applies to
scenarios unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.engine import Measurements, ResultSet, TrialSpec, format_table, run_sweep
from repro.engine.trial import TrialResult
from repro.scenarios.timeline import Scenario, execute


def apply_overrides(scenario: Scenario, overrides: Mapping[str, Any]) -> Scenario:
    """A new scenario with one sweep grid point applied.

    Supported axis keys:

    * ``n_nodes`` — world size;
    * ``tracks.<i>.<field>`` — any field of the i-th track (tracks are
      dataclasses, so the override goes through ``dataclasses.replace``
      and the track's own validation).

    Seeds are deliberately *not* an axis: the trial engine derives one
    seed per (experiment, base seed, grid point) and replicates the grid
    over ``--seeds`` — a ``seed`` override here would be silently
    shadowed by that derivation.
    """
    n_nodes = scenario.n_nodes
    tracks = list(scenario.tracks)
    for key, value in overrides.items():
        if key == "n_nodes":
            n_nodes = int(value)
        elif key == "seed":
            raise ValueError(
                "'seed' is not a sweep axis — replicate over base seeds "
                "with --seeds instead"
            )
        elif key.startswith("tracks."):
            try:
                _prefix, index_text, field = key.split(".", 2)
                index = int(index_text)
            except ValueError:
                raise ValueError(
                    f"bad track axis {key!r} (want tracks.<index>.<field>)"
                ) from None
            if not 0 <= index < len(tracks):
                raise ValueError(
                    f"axis {key!r}: scenario {scenario.name!r} has "
                    f"{len(tracks)} tracks"
                )
            track = tracks[index]
            if not hasattr(track, field):
                raise ValueError(
                    f"axis {key!r}: {type(track).__name__} has no field {field!r}"
                )
            tracks[index] = dataclasses.replace(track, **{field: value})
        else:
            raise ValueError(
                f"unknown sweep axis {key!r} (want n_nodes or "
                "tracks.<index>.<field>)"
            )
    return dataclasses.replace(scenario, n_nodes=n_nodes, tracks=tuple(tracks))


def _trial(spec: TrialSpec) -> Measurements:
    """Module-level trial function (picklable for the process pool):
    apply the spec's grid point, then execute."""
    scenario: Scenario = spec.context
    if spec.params:
        scenario = apply_overrides(scenario, spec.params)
    return execute(scenario, seed=spec.seed)


def run_scenario_sweep(
    scenario: Scenario,
    grid: Mapping[str, Sequence[Any]],
    *,
    jobs: int = 1,
    seeds: Optional[Sequence[int]] = None,
    on_result: Optional[Callable[[TrialResult], None]] = None,
    keep_results: bool = True,
) -> ResultSet:
    """Shard a sweep grid over a scenario across processes.

    Each grid point × base seed is one independent shard (its own world,
    seeded via the engine's position-independent derivation), so results
    are seed-for-seed identical for any ``jobs`` value.  ``on_result``
    receives completed shards in spec order as they finish — pass a
    writer there and ``keep_results=False`` to archive a large sweep
    incrementally instead of accumulating it in memory.
    """
    return run_sweep(
        f"scenario-sweep:{scenario.name}",
        _trial,
        grid=grid,
        seeds=seeds or (scenario.seed,),
        context=scenario,
        jobs=jobs,
        on_result=on_result,
        keep_results=keep_results,
    )


class ScenarioResult:
    """Aggregated scenario measurements plus the raw :class:`ResultSet`."""

    def __init__(self, scenario: Scenario, result_set: ResultSet) -> None:
        self.scenario = scenario
        self.result_set = result_set

    def rows(self) -> List[Tuple]:
        rs = self.result_set
        rows: List[Tuple] = [
            ("trials (seed replicas)", len(rs)),
            ("msgs/s (mean over measured phases)", rs.mean("msgs_per_sec")),
            ("groups created", int(rs.total("groups_created"))),
            ("groups failed to create", int(rs.total("groups_failed"))),
            ("groups affected by faults", int(rs.total("groups_affected"))),
            ("groups notified", int(rs.total("groups_notified"))),
            ("notifications expected", int(rs.total("notifications_expected"))),
            ("notifications delivered", int(rs.total("notifications_delivered"))),
            ("spurious (false-positive) groups", int(rs.total("spurious_groups"))),
        ]
        latencies = rs.samples("latency_min")
        if latencies:
            for pct in (50, 95, 100):
                rows.append(
                    (f"notification latency p{pct} (min)", rs.percentile("latency_min", pct))
                )
        # Track-reported extras (partition_spanning_groups, blocked_pairs,
        # svtree_published, ...) vary by scenario; surface any present.
        # Reported as per-trial means: extras mix counts with level-type
        # values (final_link_loss, wave_size), and summing a level across
        # seed replicas would misreport it.
        skip = {
            "msgs_per_sec", "groups_created", "groups_failed", "groups_affected",
            "groups_notified", "notifications_expected", "notifications_delivered",
            "spurious_groups", "latency_min", "final_alive", "events",
        }
        seen: List[str] = []
        for trial in rs:
            for name in trial.measurements:
                if name not in skip and name not in seen:
                    seen.append(name)
        per_trial = " (mean/trial)" if len(rs) > 1 else ""
        for name in seen:
            rows.append((f"{name}{per_trial}", rs.mean(name)))
        rows.append(("final alive nodes", int(rs.total("final_alive"))))
        rows.append(("events dispatched", int(rs.total("events"))))
        return rows

    def format_table(self) -> str:
        scenario = self.scenario
        timeline = " → ".join(
            f"{p.name}:{p.minutes:g}m" + ("*" if p.measure else "")
            for p in scenario.phases
        )
        title = (
            f"scenario {scenario.name!r} — {scenario.n_nodes} nodes, "
            f"{timeline} (* = measured)"
        )
        return format_table(["metric", "value"], self.rows(), title=title)


def run_scenario(
    scenario: Scenario,
    *,
    jobs: int = 1,
    seeds: Optional[Sequence[int]] = None,
) -> ScenarioResult:
    """Run seed replicas of ``scenario`` (its own seed by default)
    through the trial engine."""
    rs = run_sweep(
        f"scenario:{scenario.name}",
        _trial,
        seeds=seeds or (scenario.seed,),
        context=scenario,
        jobs=jobs,
    )
    return ScenarioResult(scenario, rs)
