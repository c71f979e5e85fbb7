"""Fig 9 — combined latency of ping timeout, repair timeout, and failure
notification after node crashes.

Paper setup: 400 FUSE groups of size 5 on 400 nodes; the network is then
disconnected on one physical machine, taking down 10 of the 400 virtual
nodes.  42 groups contained a disconnected member; the 163 notifications
delivered to their remaining live members form the reported CDF.

Expected shape (§7.4): the ping interval (60 s) + ping timeout (20 s)
put first detection uniformly in 20-80 s; the repair attempt then has to
fail (member timeout 1 min, root timeout 2 min) before HardNotifications
flow, so the CDF spans roughly 0.5 to 4 minutes and is dominated by the
two timeouts rather than by propagation.

Engine decomposition: one trial per base seed — each replica runs the
whole disconnect scenario in its own world, and replicas' notification
CDFs merge.  ``run(..., seeds=[...])`` (or ``--seeds`` on the CLI) turns
this figure into an embarrassingly parallel fan-out.

Since the scenario layer landed, this module is a thin wrapper: the
trial builds the declarative ``paper-fig9`` scenario from its
:class:`~repro.scenarios.CrashConfig`
(:func:`repro.scenarios.fig9_scenario` — a group workload plus a
disconnect wave sharing the ``crash-workload`` RNG stream) and executes
it.  The scenario reproduces the original hand-written loop's draw
order and event schedule exactly, so measurements are unchanged.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.engine import Measurements, ResultSet, TrialSpec, format_cdf
from repro.experiments.report import Claim, Figure, FigureResult
from repro.scenarios import CrashConfig, execute, fig9_scenario


class CrashResult(FigureResult):
    title = ("Fig 9 — crash notification latency "
             "(paper: 42/400 groups affected, 163 notifications, 0.3-4 min)")
    claims = (
        Claim("the disconnects affect some groups", lambda r: r.groups_affected > 0),
        Claim("every live member of every affected group is notified",
              lambda r: r.notifications_delivered == r.notifications_expected),
        Claim("every notification lands within 6 minutes (detection + repair timeouts)",
              lambda r: r.latency.value_at_fraction(1.0) <= 6.0),
        Claim("detection is timeout-driven, not instant: p25 >= 0.1 minutes",
              lambda r: r.latency.value_at_fraction(0.25) >= 0.1),
    )

    def __init__(self, rs: ResultSet, config: CrashConfig) -> None:
        self.latency = rs.cdf("latency_min", "crash-notification-minutes")
        self.groups_created = int(rs.total("groups_created"))
        self.groups_affected = int(rs.total("groups_affected"))
        self.notifications_expected = int(rs.total("notifications_expected"))
        self.notifications_delivered = int(rs.total("notifications_delivered"))

    def rows(self) -> List[Tuple]:
        rows = [
            ("groups created", self.groups_created),
            ("groups with a disconnected member", self.groups_affected),
            ("notifications expected", self.notifications_expected),
            ("notifications delivered", self.notifications_delivered),
        ]
        if len(self.latency):
            for pct in (0.25, 0.5, 0.75, 0.95, 1.0):
                rows.append(
                    (f"latency p{int(pct * 100)} (min)", self.latency.value_at_fraction(pct))
                )
        return rows

    def format_table(self) -> str:
        table = super().format_table()
        if len(self.latency):
            table += "\n" + format_cdf("minutes-cdf", self.latency.points(40))
        return table


def _trial(spec: TrialSpec) -> Measurements:
    config: CrashConfig = spec.context
    m = execute(fig9_scenario(config), seed=spec.seed)
    return {
        "groups_created": m["groups_created"],
        "groups_affected": m["groups_affected"],
        "notifications_expected": m["notifications_expected"],
        "notifications_delivered": m["notifications_delivered"],
        "latency_min": m["latency_min"],
    }


FIGURE = Figure(
    name="fig9",
    config=CrashConfig,
    paper_scale=CrashConfig.paper_scale,
    trial=_trial,
    result=CrashResult,
)
run = FIGURE.run
