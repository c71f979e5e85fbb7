"""§3 — distributed one-way agreement under adversarial fault schedules.

The paper's core guarantee is qualitative: whenever a failure condition
affects a group, *every* live member hears exactly one notification
within a bounded period of time, for any pattern of crashes, partitions,
and intransitive failures.  This experiment quantifies it on our
implementation: random groups, a randomized fault schedule drawn from
all fault classes, and a check that (a) every live member of every
affected group was notified, (b) no handler fired twice, and (c) the
worst-case latency stays within the analytic bound (detection window +
member repair timeout + root repair timeout + propagation slack).

Engine decomposition: one trial per base seed — each seed draws an
independent adversarial schedule, so ``--seeds 1,2,3,...`` fans the
verdict over many schedules concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.engine import Measurements, ResultSet, TrialSpec
from repro.experiments.report import Claim, Figure, FigureResult
from repro.sim.metrics import Histogram
from repro.world import FuseWorld


@dataclass
class AgreementConfig:
    n_nodes: int = 60
    n_groups: int = 20
    group_size: int = 5
    n_faults: int = 6
    observe_minutes: float = 14.0
    seed: int = 10


class AgreementResult(FigureResult):
    title = ("§3 — one-way agreement under adversarial faults "
             "(paper: notifications never fail; bounded latency)")
    claims = (
        Claim("the fault schedule affects some groups", lambda r: r.groups_affected > 0),
        Claim("every live member of an affected group is notified", lambda r: r.missed == []),
        Claim("no member hears a notification twice", lambda r: r.duplicates == []),
        Claim("the worst latency is within the analytic bound",
              lambda r: not len(r.notifications) or r.notifications.max() <= r.bound_minutes),
    )

    def __init__(self, rs: ResultSet, config: AgreementConfig) -> None:
        bounds = rs.scalars("bound_minutes")
        self.bound_minutes = max(bounds) if bounds else 0.0
        self.groups_affected = int(rs.total("groups_affected"))
        self.notifications = Histogram("agreement-latency-min")
        self.notifications.extend(rs.samples("latency_min"))
        # Violations travel as flat "fid:node" strings (see _trial).
        self.missed = [_decode(e) for e in rs.samples("missed")]
        self.duplicates = [_decode(e) for e in rs.samples("duplicates")]

    def rows(self) -> List[Tuple]:
        rows = [
            ("groups affected", self.groups_affected),
            ("missed notifications", len(self.missed)),
            ("duplicate notifications", len(self.duplicates)),
            ("analytic bound (min)", self.bound_minutes),
        ]
        if len(self.notifications):
            rows.append(("worst observed latency (min)", self.notifications.max()))
            rows.append(("median latency (min)", self.notifications.pct(50)))
        return rows


def _decode(entry: str) -> Tuple[str, int]:
    fid, _, node = entry.rpartition(":")
    return (fid, int(node))


def _trial(spec: TrialSpec) -> Measurements:
    config: AgreementConfig = spec.context
    world = FuseWorld(n_nodes=config.n_nodes, seed=spec.seed)
    world.bootstrap()
    rng = world.sim.rng.stream("agreement-faults")

    # Analytic bound: one liveness window to detect, one member repair
    # timeout, one root repair timeout, and propagation slack.
    cfg = world.fuse_config
    silence = world.overlay.config.liveness_silence_ms
    bound_ms = (
        silence
        + cfg.member_repair_timeout_ms
        + cfg.root_repair_timeout_ms
        + cfg.repair_backoff_cap_ms
        + 30_000.0
    )

    groups: List[Tuple[str, List[int]]] = []
    for _ in range(config.n_groups):
        root, *members = rng.sample(world.node_ids, config.group_size)
        fid, status, _ = world.create_group_sync(root, members)
        if status != "ok":
            continue
        groups.append((fid, [root] + members))

    world.run_for_minutes(2.0)

    # Adversarial schedule: a mix of crashes, disconnects, intransitive
    # failures between group members, and a partial partition.
    t0 = world.now
    victims: Set[int] = set()
    all_members = sorted({m for _fid, members in groups for m in members})
    for _ in range(config.n_faults):
        kind = rng.choice(["crash", "disconnect", "intransitive", "partition"])
        when = world.now + rng.uniform(0.0, 120_000.0)
        if kind == "crash" and all_members:
            node = rng.choice(all_members)
            victims.add(node)
            world.sim.call_at(when, lambda n=node: world.net.crash_host(n))
        elif kind == "disconnect" and all_members:
            node = rng.choice(all_members)
            victims.add(node)
            world.sim.call_at(when, lambda n=node: world.net.disconnect_host(n))
        elif kind == "intransitive":
            _fid, members = groups[rng.randrange(len(groups))]
            a, b = rng.sample(members, 2)
            world.sim.call_at(when, lambda a=a, b=b: world.net.faults.block_pair(a, b))
            # The application notices on send and signals (§3.4).
            world.sim.call_at(
                when + 5_000.0, lambda fid=_fid, a=a: world.fuse(a).signal_failure(fid)
            )
        else:
            cut = rng.sample(world.node_ids, max(2, len(world.node_ids) // 6))
            world.sim.call_at(
                when, lambda cut=cut: world.net.faults.partition([cut])
            )
            heal = when + 180_000.0
            world.sim.call_at(heal, world.net.faults.heal_partition)

    world.run_for_minutes(config.observe_minutes)

    # Verdict: every live member of every affected group heard exactly
    # once — read straight off the world ledger (first-cause rows are the
    # deliveries; a second report for the same (group, member) lands in
    # ledger.duplicates, which is exactly the exactly-once violation).
    # Violations are encoded as flat "fid:node" strings to honor the
    # engine's scalar-or-flat-list measurement contract.
    ledger = world.ledger
    dup_pairs = {
        (rec.fuse_id, rec.node) for rec in ledger.duplicates if rec.role != "delegate"
    }
    groups_affected = 0
    missed: List[str] = []
    duplicates: List[str] = []
    latency_min: List[float] = []
    for fid, members in groups:
        times = ledger.notification_times(fid)
        affected = bool(times) or any(m in victims for m in members)
        if not affected:
            continue
        groups_affected += 1
        for node in members:
            if not world.host(node).alive:
                continue  # crashed processes are exempt (fail-stop)
            if node not in times:
                missed.append(f"{fid}:{node}")
            elif (fid, node) in dup_pairs:
                duplicates.append(f"{fid}:{node}")
            else:
                latency_min.append((times[node] - t0) / 60_000.0)
    return {
        "bound_minutes": bound_ms / 60_000.0,
        "groups_affected": groups_affected,
        "missed": missed,
        "duplicates": duplicates,
        "latency_min": latency_min,
    }


FIGURE = Figure(
    name="agreement",
    config=AgreementConfig,
    paper_scale=AgreementConfig,  # no paper-scale preset
    trial=_trial,
    result=AgreementResult,
)
run = FIGURE.run
