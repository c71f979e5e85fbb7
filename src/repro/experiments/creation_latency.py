"""Fig 7 — latency of FUSE group creation vs group size.

Paper setup: group sizes 2, 4, 8, 16, 32 with members uniformly
distributed over a 400-node overlay, 20 groups per size; reported as
25th/50th/75th percentile bars.  Creation latency grows with size because
a bigger group is more likely to include a member across a slow (T3)
path, and creation blocks on the furthest member; by size 32 the
quartiles converge because some slow path is almost certain.

Engine decomposition: one trial per group size (× seed); each trial
bootstraps its own world and creates ``groups_per_size`` groups, so the
five sizes regenerate concurrently under ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.engine import Measurements, ResultSet, TrialSpec
from repro.experiments.report import Claim, Figure, FigureResult
from repro.world import FuseWorld


@dataclass
class CreationConfig:
    n_nodes: int = 100
    group_sizes: Sequence[int] = (2, 4, 8, 16, 32)
    groups_per_size: int = 10
    seed: int = 2

    @classmethod
    def paper_scale(cls) -> "CreationConfig":
        return cls(n_nodes=400, groups_per_size=20)


class CreationResult(FigureResult):
    headers = ("group size", "p25 ms", "median ms", "p75 ms", "max ms", "n")
    title = ("Fig 7 — group creation latency vs size "
             "(paper: grows with size; ~0.4-3 s at 400 nodes)")
    claims = (
        Claim("every group creates", lambda r: r.failures == 0),
        Claim("size-32 groups create slower than pairs (median)",
              lambda r: r.by_size[32].pct(50) > r.by_size[2].pct(50)),
        Claim("creation is RPC-scale: every size's median is under 10 s",
              lambda r: all(h.pct(50) < 10_000.0 for h in r.by_size.values())),
        Claim("quartiles converge by size 32: p75 - p25 <= 0.6 x median + 100 ms",
              lambda r: r.by_size[32].pct(75) - r.by_size[32].pct(25)
              <= 0.6 * r.by_size[32].pct(50) + 100.0),
    )

    def __init__(self, rs: ResultSet, config: CreationConfig) -> None:
        self.by_size = {
            size: subset.histogram("latency_ms", f"create-{size}")
            for size, subset in rs.group_by("group_size").items()
        }
        self.failures = int(rs.total("failures"))

    def rows(self) -> List[Tuple]:
        out = []
        for size in sorted(self.by_size):
            hist = self.by_size[size]
            s = hist.summary()
            out.append((size, s["p25"], s["p50"], s["p75"], s["max"], int(s["count"])))
        return out


def _trial(spec: TrialSpec) -> Measurements:
    config: CreationConfig = spec.context
    size = spec["group_size"]
    world = FuseWorld(n_nodes=config.n_nodes, seed=spec.seed)
    world.bootstrap()
    rng = world.sim.rng.stream("creation-workload")
    latencies: List[float] = []
    failures = 0
    for _ in range(config.groups_per_size):
        root, *members = rng.sample(world.node_ids, size)
        _fid, status, latency = world.create_group_sync(root, members)
        if status == "ok":
            latencies.append(latency)
        else:
            failures += 1
    return {"latency_ms": latencies, "failures": failures}


FIGURE = Figure(
    name="fig7",
    config=CreationConfig,
    paper_scale=CreationConfig.paper_scale,
    trial=_trial,
    result=CreationResult,
    grid=lambda config: {"group_size": tuple(config.group_sizes)},
)
run = FIGURE.run
