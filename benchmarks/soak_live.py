"""Localhost soak of the asyncio UDP backend: agreement under storms.

Spawns ``--peers`` live peers in one process (one UDP socket each),
bootstraps the overlay over real datagrams, lays FUSE groups across the
membership, then drives fault storms — a correlated crash wave, a
partition that later heals, a second crash wave during the partition —
and finally audits the ledger against the paper's §3 invariant:

    one-way agreement — when any member of a group fails, every other
    live member is notified.  Zero lost notifications, ever.

A violation (a group with a crashed member whose surviving member never
got a note) exits non-zero and prints the offending (group, member)
pairs.  Spurious notifications (partition casualties, false positives)
are counted but are *not* violations: FUSE promises never to miss, not
never to over-fire.

Usage::

    PYTHONPATH=src python benchmarks/soak_live.py --peers 64        # CI smoke, ~30 s
    PYTHONPATH=src python benchmarks/soak_live.py --peers 1000 \\
        --time-scale 0.2                                            # acceptance soak

``--time-scale`` is wall seconds per virtual second.  The default 0.02
compresses a virtual minute into 1.2 wall seconds.  Gentler than the
unit tests' 0.002 because compression trades against protocol headroom:
a group-create RPC chain must land inside ``create_timeout_ms`` (10
virtual seconds — 200 wall ms at 0.02), and the CPU cost of driving
many real sockets through one event loop counts against that budget.
At 1,000 peers the binding constraint is the liveness plane itself:
1,000 ping sweeps spread over one virtual ping period must each be
answered inside ``ping_timeout_ms`` (20 virtual s), or mass eviction
cascades.  On a single core that takes ``--time-scale 0.2`` (a virtual
minute in 12 wall s); squeeze harder and the overlay tears itself down
— not a protocol bug, just more traffic than the loop can carry.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
from typing import Dict, List, Sequence, Tuple

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.net.backends.liveworld import LiveWorld  # noqa: E402
from repro.net.backends.wallclock import wall_seconds  # noqa: E402

MINUTE_MS = 60_000.0

#: Virtual minutes a failure may take to surface as a notification:
#: the paper's detection window (60 s ping period + 20 s timeout, §7.2)
#: plus repair retries and the retransmit schedule.
DETECTION_BUDGET_MIN = 4.0


def lay_groups(world: LiveWorld, n_groups: int, group_size: int) -> Dict[str, Tuple[int, List[int]]]:
    """Create ``n_groups`` groups of ``group_size`` over random members."""
    rng = world.sim.rng.stream("soak.groups")
    groups: Dict[str, Tuple[int, List[int]]] = {}
    node_ids = list(world.node_ids)
    for _ in range(n_groups):
        members = rng.sample(node_ids, group_size)
        root, rest = members[0], members[1:]
        fid, status, _latency = world.create_group_sync(root, rest)
        if status == "ok" and fid is not None:
            groups[fid] = (root, members)
    return groups


def audit_agreement(
    world: LiveWorld,
    groups: Dict[str, Tuple[int, List[int]]],
    failed: Sequence[int],
) -> Tuple[List[Tuple[str, int]], int, int]:
    """Return (violations, groups_affected, notes_delivered).

    A violation is a (fuse_id, member) pair where the group lost a member
    to ``failed`` but that *surviving* member has no note in the ledger.
    """
    failed_set = set(failed)
    violations: List[Tuple[str, int]] = []
    affected = 0
    delivered = 0
    for fid, (_root, members) in groups.items():
        hit = [m for m in members if m in failed_set]
        if not hit:
            continue
        affected += 1
        notified = {rec.node for rec in world.ledger.member_notes(fid)}
        delivered += len(notified)
        for member in members:
            if member in failed_set:
                continue  # dead members owe nobody a notification
            if member not in notified:
                violations.append((fid, member))
    return violations, affected, delivered


def run_soak(
    peers: int,
    time_scale: float,
    seed: int,
    crash_fraction: float,
    verbose: bool = True,
) -> Dict[str, object]:
    def say(msg: str) -> None:
        if verbose:
            print(msg, flush=True)

    t_wall = wall_seconds()
    failed: List[int] = []
    with LiveWorld(n_nodes=peers, seed=seed, time_scale=time_scale) as world:
        say(f"bootstrapping {peers} live peers (time_scale={time_scale}) ...")
        world.bootstrap(settle_ms=2_000.0)
        bootstrap_wall = wall_seconds() - t_wall
        assert world.overlay.member_count == peers, (
            f"bootstrap incomplete: {world.overlay.member_count}/{peers} joined"
        )
        say(f"  joined {peers}/{peers} in {bootstrap_wall:.1f}s wall")

        n_groups = max(4, peers // 4)
        group_size = min(6, max(3, peers // 16))
        groups = lay_groups(world, n_groups, group_size)
        say(f"  laid {len(groups)} groups of {group_size}")

        rng = world.sim.rng.stream("soak.faults")
        world.run_for(1.0 * MINUTE_MS)  # steady traffic baseline

        # --- storm 1: correlated crash wave --------------------------
        wave = rng.sample(list(world.node_ids), max(1, int(peers * crash_fraction)))
        say(f"  crash wave: {len(wave)} peers down")
        for node in wave:
            world.crash(node)
        failed.extend(wave)
        world.run_for(DETECTION_BUDGET_MIN * MINUTE_MS)

        # --- storm 2: partition, crash inside it, heal ---------------
        alive = world.alive_node_ids()
        cut = len(alive) // 3
        side_a, side_b = alive[:cut], alive[cut:]
        say(f"  partition: {len(side_a)} | {len(side_b)} peers")
        world.net.faults.partition([side_a, side_b])
        world.run_for(1.0 * MINUTE_MS)
        extra = [n for n in rng.sample(side_b, max(1, len(wave) // 2))]
        say(f"  second crash wave behind the partition: {len(extra)} peers")
        for node in extra:
            world.crash(node)
        failed.extend(extra)
        world.run_for(1.0 * MINUTE_MS)
        world.net.faults.heal_partition()
        say("  partition healed; waiting out the detection window")
        world.run_for(DETECTION_BUDGET_MIN * MINUTE_MS)

        # --- audit ----------------------------------------------------
        violations, affected, delivered = audit_agreement(world, groups, failed)
        metrics = world.sim.metrics
        result: Dict[str, object] = {
            "peers": peers,
            "seed": seed,
            "time_scale": time_scale,
            "groups": len(groups),
            "group_size": group_size,
            "failed_peers": len(failed),
            "groups_affected": affected,
            "notes_delivered": delivered,
            "agreement_violations": len(violations),
            "violation_pairs": [list(v) for v in violations[:20]],
            "virtual_minutes": round(world.now / MINUTE_MS, 2),
            "bootstrap_wall_s": round(bootstrap_wall, 1),
            "total_wall_s": round(wall_seconds() - t_wall, 1),
            "net_messages": int(metrics.counter("net.messages").value),
            "net_deliveries": int(metrics.counter("net.deliveries").value),
            "net_connection_breaks": int(metrics.counter("net.connection_breaks").value),
            "net.backends.kernel.stall_ms": round(world.sim.clock.stall_ms, 1),
            "net.backends.kernel.max_lateness_ms": round(world.sim.clock.max_lateness_ms, 1),
            "python": platform.python_version(),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/soak_live.py",
        description="Soak the asyncio UDP backend and audit one-way agreement.",
    )
    parser.add_argument("--peers", type=int, default=64, help="live peers (default 64)")
    parser.add_argument("--time-scale", type=float, default=0.02,
                        help="wall seconds per virtual second (default 0.02)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--crash-fraction", type=float, default=0.08,
                        help="fraction of peers in the first crash wave")
    parser.add_argument("--json", action="store_true", help="emit the result as JSON")
    parser.add_argument("--out", type=pathlib.Path, default=None, help="also write JSON here")
    args = parser.parse_args(argv)

    result = run_soak(
        peers=args.peers,
        time_scale=args.time_scale,
        seed=args.seed,
        crash_fraction=args.crash_fraction,
        verbose=not args.json,
    )
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        ok = result["agreement_violations"] == 0
        print(
            f"[{'AGREEMENT' if ok else 'VIOLATION'}] peers={result['peers']} "
            f"failed={result['failed_peers']} groups_affected={result['groups_affected']} "
            f"notes={result['notes_delivered']} violations={result['agreement_violations']} "
            f"({result['virtual_minutes']:.0f} virtual min in {result['total_wall_s']}s wall, "
            f"{result['net_messages']} datagrams)"
        )
        for pair in result["violation_pairs"]:
            print(f"    lost notification: group={pair[0]} member={pair[1]}")
    return 0 if result["agreement_violations"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
