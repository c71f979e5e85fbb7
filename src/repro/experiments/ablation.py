"""§5/§5.1 ablations — liveness topology trade-offs and design switches.

Two studies the paper argues qualitatively, measured here:

1. **Topology scaling** (§5.1): steady-state message load as the number
   of groups grows, for the overlay implementation (shared pings — load
   flat in group count) versus direct spanning trees, all-to-all pinging
   (n² per group), and a central server (per-member flat, server
   bottleneck).

2. **Repair ablation** (§6 intro): with repair disabled, delegate
   failures convert directly into group failures; the paper chose repair
   precisely to avoid these false positives.

Engine decomposition: the topology study is a ``topology × n_groups``
grid (one world per cell), the repair study a two-point grid over
``repair_enabled`` — the widest fan-outs in the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.engine import Measurements, ResultSet, TrialSpec
from repro.experiments.report import Claim, Figure, FigureResult
from repro.fuse.api import GroupLedger
from repro.fuse.config import FuseConfig
from repro.fuse.topologies import ALL_TO_ALL, DIRECT_TREE, DirectLinkFuse, Topology
from repro.net import MercatorConfig, Network, build_mercator_topology
from repro.net.node import Host
from repro.sim import Simulator
from repro.world import FuseWorld

TOPOLOGIES = ("overlay (paper)", "direct-tree", "all-to-all", "central")


@dataclass
class TopologyAblationConfig:
    n_nodes: int = 40
    group_counts: Tuple[int, ...] = (5, 10, 20, 40)
    group_size: int = 6
    window_minutes: float = 10.0
    seed: int = 11


class TopologyAblationResult(FigureResult):
    title = ("§5.1 ablation — steady-state load vs group count "
             "(overlay: flat; direct/all-to-all: grows; all-to-all fastest growth)")
    claims = (
        Claim("the overlay's load is flat in group count: growth under 1.3x",
              lambda r: r.growth("overlay (paper)") < 1.3),
        Claim("direct trees and all-to-all grow with group count: both over 1.5x",
              lambda r: r.growth("all-to-all") > 1.5 and r.growth("direct-tree") > 1.5),
        Claim("all-to-all costs more than direct trees at the most groups",
              lambda r: r.load[("all-to-all", r.counts[-1])]
              > r.load[("direct-tree", r.counts[-1])]),
    )

    def __init__(self, rs: ResultSet, config: TopologyAblationConfig) -> None:
        # (topology, n_groups) -> msgs/sec
        self.load: Dict[Tuple[str, int], float] = {}
        for topology, by_topology in rs.group_by("topology").items():
            for n_groups, cell in by_topology.group_by("n_groups").items():
                self.load[(topology, n_groups)] = cell.mean("msgs_per_sec")

    @property
    def counts(self) -> List[int]:
        return sorted({c for _, c in self.load})

    def growth(self, topology: str) -> float:
        """Load at the most groups over load at the fewest."""
        low, high = self.counts[0], self.counts[-1]
        return self.load[(topology, high)] / max(self.load[(topology, low)], 1e-9)

    def rows(self) -> List[Tuple]:
        out = []
        for topology in sorted({t for t, _ in self.load}):
            row = [topology] + [round(self.load.get((topology, c), 0.0), 1) for c in self.counts]
            out.append(tuple(row))
        return out

    @property
    def headers(self) -> List[str]:
        return ["topology"] + [f"{c} groups msg/s" for c in self.counts]


def _run_overlay(n_nodes: int, n_groups: int, group_size: int,
                 window_ms: float, seed: int) -> float:
    """The paper's implementation: FUSE trees over the SkipNet overlay."""
    world = FuseWorld(n_nodes=n_nodes, seed=seed)
    world.bootstrap()
    rng = world.sim.rng.stream("ablation-groups")
    for _ in range(n_groups):
        root, *members = rng.sample(world.node_ids, group_size)
        world.create_group_sync(root, members)
    world.run_for_minutes(1.0)
    world.sim.metrics.reset_counters()
    world.run_for(window_ms)
    return world.sim.metrics.counter("net.messages").rate_per_second(window_ms)


def alternative_deployment(kind: str, n_nodes: int, n_groups: int, group_size: int,
                           seed: int) -> Tuple[Simulator, GroupLedger]:
    """``n_nodes`` hosts plus one spare (the central server) running one
    §5.1 alternative, with ``n_groups`` random groups created one at a
    time.  Returns once the last create has finished."""
    sim = Simulator(seed=seed)
    topo, host_ids = build_mercator_topology(
        MercatorConfig.scaled_for_hosts(n_nodes + 1), sim.rng.stream("topology")
    )
    net = Network(sim, topo)
    hosts = [Host(net, h) for h in host_ids[: n_nodes + 1]]
    topology = {"direct-tree": DIRECT_TREE, "all-to-all": ALL_TO_ALL}.get(kind)
    topology = topology or Topology(server=hosts[-1].node_id)
    # One ledger per deployment (as FuseWorld does) so handles see every
    # member's notifications, not just the local node's.
    ledger = GroupLedger(sim, net.faults)
    services = [DirectLinkFuse(h, topology, ledger=ledger) for h in hosts]
    rng = sim.rng.stream("ablation-groups")
    for _ in range(n_groups):
        indices = rng.sample(range(n_nodes), group_size)
        root, members = indices[0], [hosts[i].node_id for i in indices[1:]]
        done = []
        handle = services[root].create_group(members)
        handle.on_live(lambda _g: done.append("ok"))
        handle.on_notified(lambda _g, reason: done.append(reason.value))
        sim.run_until(lambda: bool(done), timeout_ms=math.inf)
    return sim, ledger


def _topology_trial(spec: TrialSpec) -> Measurements:
    config: TopologyAblationConfig = spec.context
    kind = spec["topology"]
    n_groups = spec["n_groups"]
    window_ms = config.window_minutes * 60_000.0
    if kind == "overlay (paper)":
        rate = _run_overlay(
            config.n_nodes, n_groups, config.group_size, window_ms, spec.seed
        )
    else:
        sim, _ledger = alternative_deployment(
            kind, config.n_nodes, n_groups, config.group_size, spec.seed
        )
        sim.metrics.reset_counters()
        sim.run(until=sim.now + window_ms)
        rate = sim.metrics.counter("net.messages").rate_per_second(window_ms)
    return {"msgs_per_sec": rate}


TOPOLOGY_FIGURE = Figure(
    name="ablation-topologies",
    config=TopologyAblationConfig,
    paper_scale=TopologyAblationConfig,  # no paper-scale preset
    trial=_topology_trial,
    result=TopologyAblationResult,
    grid=lambda config: {"topology": TOPOLOGIES, "n_groups": tuple(config.group_counts)},
)
run_topology_ablation = TOPOLOGY_FIGURE.run


@dataclass
class RepairAblationConfig:
    n_nodes: int = 40
    n_groups: int = 12
    group_size: int = 4
    churn_events: int = 6
    observe_minutes: float = 12.0
    seed: int = 12


class RepairAblationResult(FigureResult):
    headers = ("mode", "groups", "false positives")
    title = ("§6 ablation — repair vs signal-on-delegate-failure "
             "(paper chose repair to avoid false positives)")
    claims = (
        Claim("with repair, delegate churn causes no false positives",
              lambda r: r.false_positives["repair-enabled"] == 0),
        Claim("without repair, delegate churn causes at least one false positive",
              lambda r: r.false_positives["repair-disabled"] >= 1),
    )

    def __init__(self, rs: ResultSet, config: RepairAblationConfig) -> None:
        self.false_positives: Dict[str, int] = {}
        self.groups: Dict[str, int] = {}
        for enabled, subset in rs.group_by("repair_enabled").items():
            mode = "repair-enabled" if enabled else "repair-disabled"
            self.groups[mode] = int(subset.total("groups"))
            self.false_positives[mode] = int(subset.total("false_positives"))

    def rows(self) -> List[Tuple]:
        return [
            (mode, self.groups.get(mode, 0), self.false_positives.get(mode, 0))
            for mode in sorted(self.groups)
        ]


def _repair_trial(spec: TrialSpec) -> Measurements:
    config: RepairAblationConfig = spec.context
    world = FuseWorld(
        n_nodes=config.n_nodes,
        seed=spec.seed,
        fuse_config=FuseConfig(repair_enabled=spec["repair_enabled"]),
    )
    world.bootstrap()
    rng = world.sim.rng.stream("repair-ablation")
    group_members: List[Tuple[str, List[int]]] = []
    stable = world.node_ids[: config.n_nodes // 2]
    for _ in range(config.n_groups):
        root, *members = rng.sample(stable, config.group_size)
        fid, status, _ = world.create_group_sync(root, members)
        if status == "ok":
            group_members.append((fid, [root] + members))
    world.run_for_minutes(1.0)
    fids = {fid for fid, _m in group_members}
    member_nodes = {m for _fid, members in group_members for m in members}
    for _ in range(config.churn_events):
        # Crash a node that is currently a *delegate* (holds checking
        # state for one of our groups without being a member of it).
        delegates = sorted(
            nid
            for nid in world.node_ids
            if nid not in member_nodes
            and world.host(nid).alive
            and any(f in fids for f in world.fuse(nid).groups)
        )
        if not delegates:
            world.run_for_minutes(config.observe_minutes / config.churn_events)
            continue
        victim = rng.choice(delegates)
        world.crash(victim)
        world.run_for_minutes(config.observe_minutes / config.churn_events)
        world.restart(victim)
        world.run_for_minutes(1.0)
    world.run_for_minutes(2.0)
    # Ledger accounting: a false positive is any group one of its own
    # members was notified about (no member was ever faulted here).
    false_positives = sum(
        1
        for fid, members in group_members
        if any(world.ledger.was_notified(fid, m) for m in members)
    )
    return {"groups": len(group_members), "false_positives": false_positives}


REPAIR_FIGURE = Figure(
    name="ablation-repair",
    config=RepairAblationConfig,
    paper_scale=RepairAblationConfig,  # no paper-scale preset
    trial=_repair_trial,
    result=RepairAblationResult,
    grid=lambda config: {"repair_enabled": (True, False)},
)
run_repair_ablation = REPAIR_FIGURE.run
