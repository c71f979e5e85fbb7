"""Sim-vs-wire parity harness: one scenario, two backends, one verdict.

Runs a built-in scenario twice — once on the simulated backend
(:class:`repro.world.FuseWorld`) and once on the asyncio UDP backend
(:class:`repro.net.backends.liveworld.LiveWorld`) — with the same seed,
then compares the two :class:`repro.fuse.api.GroupLedger` outcomes.
Because both backends derive fuse ids from the same seeded RNG streams
and per-creator serials, the ledgers are keyed identically and can be
joined row by row.

What must match exactly:

* the set of groups created (by fuse id) and the counts the scenario
  aggregates (affected groups, delivered notifications, spurious groups);
* the per-member ``NotificationReason`` verdict for every delivered
  notification — crash is crash and gray is gray on the wire too.
  One carve-out, part of the documented tolerance model: the ledger
  classifies *at delivery time*, so the link-level refinables
  (``LINK_TIMEOUT`` / ``REPAIR_FAILED`` / ``RECONCILE`` /
  ``FALSE_POSITIVE`` / ``UNKNOWN``) race heal boundaries — a note landing
  just after ``heal_partition`` refines to ``FALSE_POSITIVE``, the same
  note a sweep earlier stays ``REPAIR_FAILED``.  Those five are compared
  as one equivalence class; the fault-attributing verdicts (``CRASH``,
  ``DISCONNECT``, ``GRAY_FAIL``) must match member for member.

What matches within a tolerance band: notification *latency* (measured
from the group's earliest injected fault, so differing bootstrap lengths
cancel out).  The paper's detection window is 20-80 s (§7.2: a 60 s ping
period plus a 20 s ping timeout), and the two backends need not suspect a
silent link in the same sweep — so per-note latencies may legitimately
differ by up to one full detection window plus transport slack.  The
default band is that model: ``liveness_silence_ms + 10 s``.

CLI::

    python -m repro.scenarios.parity                       # 3 defaults, --quick
    python -m repro.scenarios.parity partition-heal --seed 3
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.backends.wallclock import wall_seconds
from repro.overlay.skipnet.config import OverlayConfig
from repro.scenarios.builtin import BUILTIN
from repro.scenarios.timeline import (
    ScenarioContext,
    _group_fault_time,
    execute_with_context,
)

#: Scenarios with deterministic fault→outcome structure on both backends.
DEFAULT_SCENARIOS = ("steady", "partition-heal", "correlated-rack-failure")

#: Wall seconds per virtual second for the live leg.
DEFAULT_TIME_SCALE = 0.02


def default_tolerance_ms() -> float:
    """The documented tolerance band for per-note latency deltas.

    One paper detection window — the backends may catch a failure one
    liveness sweep apart — plus 10 s of transport slack (retries and
    repair backoff landing on different sides of a sweep boundary).
    """
    return OverlayConfig().liveness_silence_ms + 10_000.0


#: Link-level refinables: classification depends on whether delivery
#: lands before or after a heal, so backends compare them as one class
#: (see the module docstring's tolerance model).
LINK_LEVEL_REASONS = frozenset(
    {"LINK_TIMEOUT", "REPAIR_FAILED", "RECONCILE", "FALSE_POSITIVE", "UNKNOWN"}
)

#: Aggregate measurements that must agree exactly between backends.
EXACT_KEYS = (
    "groups_created",
    "groups_affected",
    "notifications_expected",
    "notifications_delivered",
    "spurious_groups",
)


@dataclass
class ParityResult:
    scenario: str
    seed: int
    tolerance_ms: float
    ok: bool = True
    mismatches: List[str] = field(default_factory=list)
    verdicts_compared: int = 0
    max_latency_delta_ms: float = 0.0
    sim_wall_s: float = 0.0
    live_wall_s: float = 0.0

    def fail(self, why: str) -> None:
        self.ok = False
        self.mismatches.append(why)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "mismatches": self.mismatches,
            "verdicts_compared": self.verdicts_compared,
            "max_latency_delta_ms": round(self.max_latency_delta_ms, 1),
            "tolerance_ms": self.tolerance_ms,
            "sim_wall_s": round(self.sim_wall_s, 2),
            "live_wall_s": round(self.live_wall_s, 2),
        }


def _verdicts(ctx: ScenarioContext) -> Dict[Tuple[str, int], str]:
    """(fuse_id, node) → NotificationReason name, first note per pair."""
    out: Dict[Tuple[str, int], str] = {}
    ledger = ctx.world.ledger
    for fuse_id in ctx.groups:
        for rec in ledger.member_notes(fuse_id):
            out.setdefault((fuse_id, rec.node), rec.reason.name)
    return out


def _latencies(ctx: ScenarioContext) -> Dict[Tuple[str, int], float]:
    """(fuse_id, node) → ms from the group's earliest fault to delivery."""
    out: Dict[Tuple[str, int], float] = {}
    for fuse_id, (_root, members) in ctx.groups.items():
        t0 = _group_fault_time(ctx, fuse_id, members)
        if t0 is None:
            continue
        for (fid, node), when in ctx.notification_times.items():
            if fid == fuse_id:
                out[(fid, node)] = when - t0
    return out


def live_world_factory(time_scale: float = DEFAULT_TIME_SCALE):
    """A ``world_factory`` for :func:`execute_with_context` building the
    asyncio backend with the given time compression."""
    from repro.net.backends.liveworld import LiveWorld

    def factory(n_nodes: int, seed: int) -> "LiveWorld":
        return LiveWorld(n_nodes=n_nodes, seed=seed, time_scale=time_scale)

    return factory


def run_parity(
    name,
    quick: bool = True,
    seed: Optional[int] = None,
    time_scale: float = DEFAULT_TIME_SCALE,
    tolerance_ms: Optional[float] = None,
) -> ParityResult:
    """Run a scenario on both backends and compare ledger outcomes.

    ``name`` is either a built-in scenario name (``quick`` selects the
    fast variant) or a :class:`repro.scenarios.timeline.Scenario`
    instance, which is run as given.
    """
    scenario = BUILTIN[name](quick=quick) if isinstance(name, str) else name
    run_seed = scenario.seed if seed is None else seed
    tol = default_tolerance_ms() if tolerance_ms is None else tolerance_ms
    result = ParityResult(scenario=scenario.name, seed=run_seed, tolerance_ms=tol)

    t0 = wall_seconds()
    sim_out, sim_ctx = execute_with_context(scenario, seed=run_seed)
    result.sim_wall_s = wall_seconds() - t0

    t0 = wall_seconds()
    live_out, live_ctx = execute_with_context(
        scenario, seed=run_seed, world_factory=live_world_factory(time_scale)
    )
    result.live_wall_s = wall_seconds() - t0
    try:
        # ---- exact aggregates -----------------------------------------
        for key in EXACT_KEYS:
            if sim_out.get(key) != live_out.get(key):
                result.fail(
                    f"{key}: sim={sim_out.get(key)} live={live_out.get(key)}"
                )

        # ---- group identity -------------------------------------------
        sim_groups = set(sim_ctx.groups)
        live_groups = set(live_ctx.groups)
        if sim_groups != live_groups:
            only_sim = sorted(sim_groups - live_groups)
            only_live = sorted(live_groups - sim_groups)
            result.fail(f"group sets differ: only_sim={only_sim} only_live={only_live}")

        # ---- per-member reason verdicts -------------------------------
        sim_verdicts = _verdicts(sim_ctx)
        live_verdicts = _verdicts(live_ctx)
        for key in sorted(set(sim_verdicts) | set(live_verdicts)):
            a = sim_verdicts.get(key)
            b = live_verdicts.get(key)
            result.verdicts_compared += 1
            if a == b:
                continue
            if a in LINK_LEVEL_REASONS and b in LINK_LEVEL_REASONS:
                continue  # heal-boundary race within the tolerance model
            result.fail(f"verdict {key}: sim={a} live={b}")

        # ---- latency tolerance band -----------------------------------
        sim_lat = _latencies(sim_ctx)
        live_lat = _latencies(live_ctx)
        for key in sorted(set(sim_lat) & set(live_lat)):
            delta = abs(sim_lat[key] - live_lat[key])
            result.max_latency_delta_ms = max(result.max_latency_delta_ms, delta)
            if delta > tol:
                result.fail(
                    f"latency {key}: sim={sim_lat[key]:.0f}ms "
                    f"live={live_lat[key]:.0f}ms delta>{tol:.0f}ms"
                )
    finally:
        live_ctx.world.close()
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios.parity",
        description="Run built-in scenarios on both backends and compare ledgers.",
    )
    parser.add_argument(
        "scenarios", nargs="*", default=list(DEFAULT_SCENARIOS),
        help=f"built-in scenario names (default: {', '.join(DEFAULT_SCENARIOS)})",
    )
    parser.add_argument("--full", action="store_true", help="paper-scale variants (default: --quick)")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--time-scale", type=float, default=DEFAULT_TIME_SCALE,
                        help="wall seconds per virtual second for the live leg")
    parser.add_argument("--tolerance-ms", type=float, default=None,
                        help="latency tolerance band (default: detection window + 10s)")
    parser.add_argument("--json", action="store_true", help="emit one JSON object per scenario")
    args = parser.parse_args(argv)

    failures = 0
    for name in args.scenarios:
        if name not in BUILTIN:
            print(f"unknown scenario: {name} (known: {', '.join(sorted(BUILTIN))})")
            return 2
        result = run_parity(
            name,
            quick=not args.full,
            seed=args.seed,
            time_scale=args.time_scale,
            tolerance_ms=args.tolerance_ms,
        )
        if args.json:
            print(json.dumps(result.to_dict()))
        else:
            status = "PARITY" if result.ok else "MISMATCH"
            print(
                f"[{status}] {name} seed={result.seed} "
                f"verdicts={result.verdicts_compared} "
                f"max_latency_delta={result.max_latency_delta_ms / 1000.0:.1f}s "
                f"(tolerance {result.tolerance_ms / 1000.0:.0f}s) "
                f"sim={result.sim_wall_s:.1f}s live={result.live_wall_s:.1f}s wall"
            )
            for line in result.mismatches:
                print(f"    {line}")
        if not result.ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
