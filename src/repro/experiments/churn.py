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
grid point builds the matching declarative scenario from its
:class:`~repro.scenarios.ChurnConfig`
(:func:`repro.scenarios.fig10_scenario` — a Poisson churn track with the
paper's pre-killed steady-state population, plus a root-observed group
workload for the ``churn-fuse`` variant) and executes it.  Stream names
and track order replicate the original hand-written trial's RNG draw
sequence, so measurements are unchanged.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.engine import Measurements, ResultSet, TrialSpec
from repro.experiments.report import Claim, Figure, FigureResult
from repro.scenarios import ChurnConfig, execute, fig10_scenario

SCENARIOS = ("stable", "churn", "churn-fuse")


class ChurnResult(FigureResult):
    title = ("Fig 10 — churn message load (paper: 238 / 270 / 523 msg/s; "
             "churn +13%, FUSE under churn +94%, zero false positives)")
    claims = (
        Claim("churn adds overlay load", lambda r: r.churn_msgs_per_sec > r.stable_msgs_per_sec),
        Claim("FUSE groups under churn add more than 15% (tree reinstallation)",
              lambda r: r.churn_fuse_msgs_per_sec > 1.15 * r.churn_msgs_per_sec),
        Claim("churn causes no false positives", lambda r: r.false_positives == 0),
    )

    def __init__(self, rs: ResultSet, config: ChurnConfig) -> None:
        self.stable_msgs_per_sec = rs.where(scenario="stable").mean("msgs_per_sec")
        self.churn_msgs_per_sec = rs.where(scenario="churn").mean("msgs_per_sec")
        self.churn_fuse_msgs_per_sec = rs.where(scenario="churn-fuse").mean("msgs_per_sec")
        self.false_positives = int(rs.total("false_positives"))
        self.groups_created = int(rs.total("groups_created"))

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


FIGURE = Figure(
    name="fig10",
    config=ChurnConfig,
    paper_scale=ChurnConfig.paper_scale,
    trial=_trial,
    result=ChurnResult,
    grid=lambda config: {"scenario": SCENARIOS},
)
run = FIGURE.run
