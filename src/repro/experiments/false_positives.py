"""Fig 12 — FUSE group failures caused by packet loss (false positives).

Paper setup: 20 groups of each size (2, 4, 8, 16, 32); per-link loss is
then enabled at 0.4 % / 0.8 % / 1.6 % (median route loss 5.8 % / 11.4 %
/ 21.5 %) and the system runs for 30 minutes.

Expected shape: *zero* failures at 0 % and 5.8 % median route loss — TCP
retransmission masks the drops entirely — while at 11.4 % and 21.5 %
some sockets break and a fraction of groups (growing with group size,
since bigger groups expose more links) receive notifications even though
every node is alive.

Engine decomposition: one trial per per-link loss rate (× seed) — each
builds its own lossy world and observes all group sizes over the run
window.  Per-size outcomes are reported as ``failed[size]``/``total[size]``
measurement pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.engine import Measurements, ResultSet, TrialSpec
from repro.experiments.report import Claim, Figure, FigureResult
from repro.world import FuseWorld


@dataclass
class FalsePositivesConfig:
    n_nodes: int = 80
    group_sizes: Sequence[int] = (2, 4, 8, 16, 32)
    groups_per_size: int = 10
    per_link_loss: Sequence[float] = (0.0, 0.004, 0.008, 0.016)
    run_minutes: float = 30.0
    seed: int = 8

    @classmethod
    def paper_scale(cls) -> "FalsePositivesConfig":
        return cls(n_nodes=400, groups_per_size=20)


class FalsePositivesResult(FigureResult):
    title = ("Fig 12 — group failures due to packet loss "
             "(paper: none at 0/5.8% median route loss, some at 11.4/21.5%)")
    claims = (
        Claim("no group fails without loss",
              lambda r: all(r.failure_pct(0.0, s) == 0.0 for s in r.sizes)),
        Claim("no group fails at 0.4% per-link loss: the transport masks the drops",
              lambda r: all(r.failure_pct(0.004, s) == 0.0 for s in r.sizes)),
        Claim("1.6% per-link loss breaks some groups",
              lambda r: max(r.failure_pct(0.016, s) for s in r.sizes) > 0.0),
        Claim("at 1.6% per-link loss the largest groups fail at least as often as pairs",
              lambda r: r.failure_pct(0.016, max(r.sizes)) >= r.failure_pct(0.016, 2)),
    )

    def __init__(self, rs: ResultSet, config: FalsePositivesConfig) -> None:
        # per (per_link_loss, size): (groups_failed, groups_total)
        self.outcomes: Dict[Tuple[float, int], Tuple[int, int]] = {}
        self.median_route_loss: Dict[float, float] = {}
        for per_link, subset in rs.group_by("per_link_loss").items():
            self.median_route_loss[per_link] = subset.mean("median_route_loss")
            for size in config.group_sizes:
                failed = int(subset.total(f"failed[{size}]"))
                total = int(subset.total(f"total[{size}]"))
                if total:
                    self.outcomes[(per_link, size)] = (failed, total)

    def failure_pct(self, per_link: float, size: int) -> float:
        failed, total = self.outcomes.get((per_link, size), (0, 0))
        return 100.0 * failed / total if total else 0.0

    @property
    def sizes(self) -> List[int]:
        return sorted({size for (_pl, size) in self.outcomes})

    def rows(self) -> List[Tuple]:
        out = []
        for per_link in sorted({pl for (pl, _s) in self.outcomes}):
            row = [
                f"{per_link * 100:.1f}%",
                f"{100 * self.median_route_loss.get(per_link, 0):.1f}%",
            ]
            row.extend(round(self.failure_pct(per_link, s), 1) for s in self.sizes)
            out.append(tuple(row))
        return out

    @property
    def headers(self) -> List[str]:
        return ["per-link", "median route"] + [f"size {s} fail%" for s in self.sizes]


def _trial(spec: TrialSpec) -> Measurements:
    config: FalsePositivesConfig = spec.context
    per_link = spec["per_link_loss"]
    world = FuseWorld(n_nodes=config.n_nodes, seed=spec.seed)
    world.bootstrap()
    rng = world.sim.rng.stream("fp-workload")

    groups: Dict[int, List[str]] = {}
    for size in config.group_sizes:
        for _ in range(config.groups_per_size):
            root, *members = rng.sample(world.node_ids, size)
            fid, status, _ = world.create_group_sync(root, members)
            if status == "ok":
                groups.setdefault(size, []).append(fid)

    # Record the median route loss this per-link rate produces.
    world.topology.set_uniform_loss(per_link)
    sample_losses = []
    for _ in range(200):
        a, b = rng.sample(world.node_ids, 2)
        sample_losses.append(world.net.routes.route(a, b).current_loss())
    sample_losses.sort()
    median_route_loss = sample_losses[len(sample_losses) // 2]

    world.run_for_minutes(config.run_minutes)

    measurements: Measurements = {"median_route_loss": median_route_loss}
    # A group "failed" if any node — member or delegate — recorded a
    # notification for it: exactly what the world ledger indexes.
    notified = world.ledger.notified_group_ids()
    for size, fids in groups.items():
        failed = sum(1 for fid in fids if fid in notified)
        measurements[f"failed[{size}]"] = failed
        measurements[f"total[{size}]"] = len(fids)
    return measurements


FIGURE = Figure(
    name="fig12",
    config=FalsePositivesConfig,
    paper_scale=FalsePositivesConfig.paper_scale,
    trial=_trial,
    result=FalsePositivesResult,
    grid=lambda config: {"per_link_loss": tuple(config.per_link_loss)},
)
run = FIGURE.run
