"""Fig 8 — latency of explicitly signalled failure notification vs size.

Paper setup: for the same group sizes as Fig 7, a random member calls
SignalFailure; the time until members hear the notification is reported
(25th/50th/75th percentiles over 20 create/notify cycles per size).

Expected shape (§7.4): notification is much faster than creation —
one-way messages over cached TCP connections, taking effect per-member on
arrival; the median rises from size 2 to 8 (the extra member->root->member
forwarding hop), then creeps up at 16/32 from per-message serialization
at the root (the paper measured 2.8 ms per send).  Paper max: 1165 ms.

Engine decomposition: one trial per group size (× seed), each in its own
bootstrapped world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.engine import Measurements, ResultSet, TrialSpec
from repro.experiments.report import Claim, Figure, FigureResult
from repro.world import FuseWorld


@dataclass
class NotificationConfig:
    n_nodes: int = 100
    group_sizes: Sequence[int] = (2, 4, 8, 16, 32)
    groups_per_size: int = 10
    seed: int = 3

    @classmethod
    def paper_scale(cls) -> "NotificationConfig":
        return cls(n_nodes=400, groups_per_size=20)


class NotificationResult(FigureResult):
    headers = ("group size", "member p25 ms", "member p50 ms", "member p75 ms",
               "group p50 ms", "group max ms")
    title = ("Fig 8 — explicitly signalled notification latency "
             "(paper: well under creation latency; max 1165 ms)")
    claims = (
        Claim("every group size hears its notifications",
              lambda r: all(h.count > 0 for h in r.group_latency.values())),
        Claim("every group is fully notified within 30 s, well under the liveness timeout",
              lambda r: all(h.max() < 30_000.0 for h in r.group_latency.values())),
        Claim("notification beats creation: member median under Fig 7's at sizes 8, 16 and 32",
              lambda r, fig7: all(r.member_latency[s].pct(50) < fig7.by_size[s].pct(50)
                                  for s in (8, 16, 32)), needs="fig7"),
        Claim("pairs are no slower than size-8 groups (member median, 1.5x slack)",
              lambda r: r.member_latency[2].pct(50) <= r.member_latency[8].pct(50) * 1.5),
    )

    def __init__(self, rs: ResultSet, config: NotificationConfig) -> None:
        by_size = rs.group_by("group_size")
        # Latency until the LAST member hears (per group).
        self.group_latency = {
            size: subset.histogram("group_ms", f"group-{size}")
            for size, subset in by_size.items()
        }
        # Latency of each individual member notification.
        self.member_latency = {
            size: subset.histogram("member_ms", f"member-{size}")
            for size, subset in by_size.items()
        }

    def rows(self) -> List[Tuple]:
        out = []
        for size in sorted(self.group_latency):
            g = self.group_latency[size].summary()
            m = self.member_latency[size].summary()
            out.append((size, m["p25"], m["p50"], m["p75"], g["p50"], g["max"]))
        return out


def _trial(spec: TrialSpec) -> Measurements:
    config: NotificationConfig = spec.context
    size = spec["group_size"]
    world = FuseWorld(n_nodes=config.n_nodes, seed=spec.seed)
    world.bootstrap()
    rng = world.sim.rng.stream("notify-workload")
    member_ms: List[float] = []
    group_ms: List[float] = []
    for _ in range(config.groups_per_size):
        root, *members = rng.sample(world.node_ids, size)
        fid, status, _ = world.create_group_sync(root, members)
        if status != "ok":
            continue
        everyone = [root] + members
        # The world ledger records every member's first notification; the
        # live view replaces the per-node observer bookkeeping.
        times: Dict[int, float] = world.ledger.notification_times(fid)
        signaller = rng.choice(everyone)
        t0 = world.now
        world.fuse(signaller).signal_failure(fid)
        # Run until every member heard (bounded patience).
        world.sim.run_until(lambda: len(times) >= len(everyone), timeout_ms=120_000.0)
        for node, when in times.items():
            if node != signaller:
                member_ms.append(when - t0)
        if times:
            group_ms.append(max(times.values()) - t0)
    return {"member_ms": member_ms, "group_ms": group_ms}


FIGURE = Figure(
    name="fig8",
    config=NotificationConfig,
    paper_scale=NotificationConfig.paper_scale,
    trial=_trial,
    result=NotificationResult,
    grid=lambda config: {"group_size": tuple(config.group_sizes)},
)
run = FIGURE.run
