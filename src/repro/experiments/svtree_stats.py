"""§4 — FUSE group size statistics under the SV-tree workload.

Paper numbers: simulating a 2000-subscriber tree on a 16,000-node overlay
needed an average of 2.9 members per FUSE group with a maximum of 13, and
the distribution depends only weakly on tree size (it grows slowly with
overlay size).  Group size is 2 (link endpoints) plus the RPF nodes the
content link bypasses, so this statistic is a direct probe of overlay
route lengths between subscribers and their attach points.

Engine decomposition: one trial per base seed; seed replicas merge their
group-size samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.apps.svtree import SVTreeService
from repro.engine import Measurements, ResultSet, TrialSpec
from repro.experiments.report import Claim, Figure, FigureResult
from repro.world import FuseWorld


@dataclass
class SvtreeStatsConfig:
    n_nodes: int = 100
    n_topics: int = 4
    subscribers_per_topic: int = 25
    seed: int = 9

    @classmethod
    def paper_scale(cls) -> "SvtreeStatsConfig":
        # The paper's 16k-node simulation; expensive but runnable.
        return cls(n_nodes=16_000, n_topics=1, subscribers_per_topic=2_000)


class SvtreeStatsResult(FigureResult):
    title = ("§4 — SV-tree FUSE group sizes "
             "(paper: mean 2.9, max 13 at 2000 subscribers / 16k nodes)")
    claims = (
        Claim("the workload creates FUSE groups", lambda r: len(r.sizes) > 0),
        Claim("groups are small: mean under 7 (paper: 2.9)", lambda r: r.sizes.mean() < 7.0),
        Claim("no runaway groups: max at most 16 (paper: 13)", lambda r: r.sizes.max() <= 16),
        Claim("the smallest group is the two link endpoints", lambda r: r.sizes.min() >= 2),
    )

    def __init__(self, rs: ResultSet, config: SvtreeStatsConfig) -> None:
        self.sizes = rs.histogram("sizes", "svtree-group-sizes")
        self.subscriptions = int(rs.total("subscriptions"))

    def rows(self) -> List[Tuple]:
        if not len(self.sizes):
            return [("groups", 0)]
        s = self.sizes.summary()
        return [
            ("groups created", int(s["count"])),
            ("mean size", s["mean"]),
            ("median size", s["p50"]),
            ("max size", s["max"]),
            ("subscriptions", self.subscriptions),
        ]


def _trial(spec: TrialSpec) -> Measurements:
    config: SvtreeStatsConfig = spec.context
    world = FuseWorld(n_nodes=config.n_nodes, seed=spec.seed)
    world.bootstrap()
    services = {nid: SVTreeService(world.fuse(nid)) for nid in world.node_ids}
    rng = world.sim.rng.stream("svtree-workload")
    subscriptions = 0

    for t in range(config.n_topics):
        topic = f"topic-{t}"
        subscribers = rng.sample(world.node_ids, config.subscribers_per_topic)
        for sub in subscribers:
            services[sub].subscribe(topic, lambda _t, _e: None)
            subscriptions += 1
        world.run_for_minutes(1.0)
    world.run_for_minutes(2.0)

    sizes: List[float] = []
    for service in services.values():
        sizes.extend(service.group_sizes)
    return {"sizes": sizes, "subscriptions": subscriptions}


FIGURE = Figure(
    name="svtree",
    config=SvtreeStatsConfig,
    paper_scale=SvtreeStatsConfig.paper_scale,
    trial=_trial,
    result=SvtreeStatsResult,
)
run = FIGURE.run
