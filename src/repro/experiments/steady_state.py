"""§7.5 (first experiment) — steady-state background load with and
without FUSE groups.

Paper numbers: a 400-node overlay generated 337 messages/second over a
10-minute window with no FUSE groups and 338 messages/second with 400
FUSE groups of 10 members each — i.e. FUSE added *no* messages, only a
20-byte hash piggybacked on existing pings.  This driver measures the
same two windows and also reports bytes/second so the hash cost is
visible.

Engine decomposition: a two-point grid over ``fuse_groups`` (off/on).
Both trials of a base seed build the *identical* world (seeded from the
base seed), so the with-FUSE window differs from the without-FUSE window
only by the live groups — the paper's same-deployment comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.engine import Measurements, ResultSet, TrialSpec
from repro.experiments.report import Claim, Figure, FigureResult
from repro.world import FuseWorld


@dataclass
class SteadyStateConfig:
    n_nodes: int = 100
    n_groups: int = 100
    group_size: int = 10
    window_minutes: float = 10.0
    seed: int = 5

    @classmethod
    def paper_scale(cls) -> "SteadyStateConfig":
        return cls(n_nodes=400, n_groups=400)


class SteadyStateResult(FigureResult):
    title = ("§7.5 — steady-state load (paper: 337 vs 338 msgs/s — "
             "FUSE adds no messages, only the 20-byte hash)")
    claims = (
        Claim("every group is created", lambda r: r.groups_created == r.groups_requested),
        Claim("FUSE groups add no messages: overhead within 1.5% (paper: +0.3%)",
              lambda r: abs(r.message_overhead_pct) <= 1.5),
        Claim("bytes/s with groups are at least 99% of overlay-only (the hash may add some)",
              lambda r: r.bytes_per_sec_with >= r.bytes_per_sec_without * 0.99),
    )

    def __init__(self, rs: ResultSet, config: SteadyStateConfig) -> None:
        without = rs.where(fuse_groups=False)
        with_groups = rs.where(fuse_groups=True)
        self.msgs_per_sec_without = without.mean("msgs_per_sec")
        self.bytes_per_sec_without = without.mean("bytes_per_sec")
        self.msgs_per_sec_with = with_groups.mean("msgs_per_sec")
        self.bytes_per_sec_with = with_groups.mean("bytes_per_sec")
        self.groups_created = int(rs.total("groups_created"))
        self.groups_requested = config.n_groups * len(with_groups)

    @property
    def message_overhead_pct(self) -> float:
        if self.msgs_per_sec_without == 0:
            return 0.0
        return 100.0 * (self.msgs_per_sec_with - self.msgs_per_sec_without) / self.msgs_per_sec_without

    def rows(self) -> List[Tuple]:
        return [
            ("msgs/sec, overlay only", self.msgs_per_sec_without),
            ("msgs/sec, + FUSE groups", self.msgs_per_sec_with),
            ("message overhead %", self.message_overhead_pct),
            ("bytes/sec, overlay only", self.bytes_per_sec_without),
            ("bytes/sec, + FUSE groups", self.bytes_per_sec_with),
            ("groups created", self.groups_created),
        ]


def _trial(spec: TrialSpec) -> Measurements:
    config: SteadyStateConfig = spec.context
    window_ms = config.window_minutes * 60_000.0
    # Seed from base_seed: the FUSE-on and FUSE-off arms measure the same
    # deployment, differing only in the live groups.
    world = FuseWorld(n_nodes=config.n_nodes, seed=spec.base_seed)
    world.bootstrap()

    groups_created = 0
    if spec["fuse_groups"]:
        rng = world.sim.rng.stream("steady-workload")
        for _ in range(config.n_groups):
            root, *members = rng.sample(world.node_ids, config.group_size)
            _fid, status, _ = world.create_group_sync(root, members)
            if status == "ok":
                groups_created += 1
        world.run_for_minutes(1.0)  # let InstallChecking traffic drain

    world.sim.metrics.reset_counters()
    world.run_for(window_ms)
    return {
        "msgs_per_sec": world.sim.metrics.counter("net.messages").rate_per_second(window_ms),
        "bytes_per_sec": world.sim.metrics.counter("net.bytes").rate_per_second(window_ms),
        "groups_created": groups_created,
    }


FIGURE = Figure(
    name="steady-state",
    config=SteadyStateConfig,
    paper_scale=SteadyStateConfig.paper_scale,
    trial=_trial,
    result=SteadyStateResult,
    grid=lambda config: {"fuse_groups": (False, True)},
)
run = FIGURE.run
