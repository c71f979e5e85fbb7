"""Fig 10 — message cost of overlay churn, with and without FUSE groups.

Paper setup: 200 stable nodes plus 200 churning nodes killed/restarted so
that ~100 churners are alive on average (system half-life 30 minutes —
7x harsher than the measured OverNet churn).  100 FUSE groups of 10 live
on the stable nodes.  Three measurements:

* stable overlay, no churn, no FUSE  -> 238 msg/s (at 300 nodes)
* churning overlay, no FUSE          -> 270 msg/s (+13 %)
* churning overlay + FUSE groups     -> 523 msg/s (+94 % over churn-only)

The FUSE increase is group repair traffic: churn moves overlay routes, so
liveness-checking trees must be reinstalled, repeatedly.  The shape to
reproduce: churn alone adds a modest percentage; churn + FUSE roughly
doubles the message rate; and no FUSE group suffers a false positive.

Engine decomposition: the three measurements are a three-point grid over
``scenario`` — each builds its own world, so they regenerate concurrently
under ``--jobs``.

Since the scenario layer landed, this module is a thin wrapper: each
grid point builds the matching declarative scenario
(:func:`repro.scenarios.fig10_scenario` — a Poisson churn track with the
paper's pre-killed steady-state population, plus a root-observed group
workload for the ``churn-fuse`` variant) and executes it.  Stream names
and track order replicate the original hand-written trial's RNG draw
sequence, so measurements are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.engine import Measurements, ResultSet, Sweep, TrialSpec, run_trials
from repro.experiments.report import Claim, format_table
from repro.scenarios import execute, fig10_scenario

EXPERIMENT = "fig10"

SCENARIOS = ("stable", "churn", "churn-fuse")


@dataclass
class ChurnConfig:
    n_stable: int = 50
    n_churning: int = 50
    n_groups: int = 25
    group_size: int = 10
    window_minutes: float = 10.0
    half_life_minutes: float = 30.0
    seed: int = 6

    @classmethod
    def paper_scale(cls) -> "ChurnConfig":
        return cls(n_stable=200, n_churning=200, n_groups=100, window_minutes=10.0)


class ChurnResult:
    claims = (
        Claim("churn adds overlay load", lambda r: r.churn_msgs_per_sec > r.stable_msgs_per_sec),
        Claim("FUSE groups under churn add more than 15% (tree reinstallation)",
              lambda r: r.churn_fuse_msgs_per_sec > 1.15 * r.churn_msgs_per_sec),
        Claim("churn causes no false positives", lambda r: r.false_positives == 0),
    )

    def __init__(self) -> None:
        self.stable_msgs_per_sec: float = 0.0
        self.churn_msgs_per_sec: float = 0.0
        self.churn_fuse_msgs_per_sec: float = 0.0
        self.false_positives: int = 0
        self.groups_created: int = 0
        self.result_set: Optional[ResultSet] = None

    def rows(self) -> List[Tuple]:
        churn_pct = (
            100.0 * (self.churn_msgs_per_sec - self.stable_msgs_per_sec) / self.stable_msgs_per_sec
            if self.stable_msgs_per_sec
            else 0.0
        )
        fuse_pct = (
            100.0 * (self.churn_fuse_msgs_per_sec - self.churn_msgs_per_sec) / self.churn_msgs_per_sec
            if self.churn_msgs_per_sec
            else 0.0
        )
        return [
            ("no churn (msgs/s)", self.stable_msgs_per_sec),
            ("with churn (msgs/s)", self.churn_msgs_per_sec),
            ("churn with FUSE (msgs/s)", self.churn_fuse_msgs_per_sec),
            ("churn overhead %", churn_pct),
            ("FUSE-under-churn overhead %", fuse_pct),
            ("false positives", self.false_positives),
            ("groups", self.groups_created),
        ]

    def format_table(self) -> str:
        return format_table(
            ["metric", "value"],
            self.rows(),
            title="Fig 10 — churn message load (paper: 238 / 270 / 523 msg/s; "
            "churn +13%, FUSE under churn +94%, zero false positives)",
        )


def _trial(spec: TrialSpec) -> Measurements:
    config: ChurnConfig = spec.context
    m = execute(fig10_scenario(config, spec["scenario"]), seed=spec.seed)
    return {
        "msgs_per_sec": m["msgs_per_sec"],
        # Stable FUSE groups must survive churn: any notified group is a
        # false positive (groups only exist in the churn-fuse variant).
        "false_positives": m["spurious_groups"],
        "groups_created": m["groups_created"],
    }


def sweep(config: ChurnConfig, seeds: Optional[Sequence[int]] = None) -> Sweep:
    return Sweep(
        grid={"scenario": SCENARIOS},
        seeds=tuple(seeds) if seeds else (config.seed,),
    )


def run(
    config: Optional[ChurnConfig] = None,
    *,
    jobs: int = 1,
    seeds: Optional[Sequence[int]] = None,
) -> ChurnResult:
    config = config or ChurnConfig()
    specs = sweep(config, seeds).expand(EXPERIMENT, context=config)
    rs = ResultSet(run_trials(_trial, specs, jobs=jobs), experiment=EXPERIMENT)
    result = ChurnResult()
    result.stable_msgs_per_sec = rs.where(scenario="stable").mean("msgs_per_sec")
    result.churn_msgs_per_sec = rs.where(scenario="churn").mean("msgs_per_sec")
    result.churn_fuse_msgs_per_sec = rs.where(scenario="churn-fuse").mean("msgs_per_sec")
    result.false_positives = int(rs.total("false_positives"))
    result.groups_created = int(rs.total("groups_created"))
    result.result_set = rs
    return result
