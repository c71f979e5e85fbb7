"""Hot-path throughput benchmark: events/second through ``Simulator.run()``.

Drives a steady-state FUSE workload (N hosts in the overlay, each ping
period generating ping/ack traffic, plus live FUSE groups exchanging
piggybacked hashes and link timers) and measures how many simulator
events per wall-clock second the discrete-event core dispatches.  This is
the scaling axis every figure reproduction lives on, so the numbers are
tracked in ``BENCH_hotpath.json`` at the repository root: each entry
records events/sec, wall seconds, and allocation statistics for one
workload mode.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full: 200 hosts
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_hotpath.py --out /tmp/b.json

The JSON written by ``--out`` (default: repo-root ``BENCH_hotpath.json``)
is merged per mode, so a ``--quick`` run does not clobber the committed
full-workload baseline.  CI runs ``--quick`` and asserts events/sec stays
above a generous floor of the committed baseline (see
``.github/workflows/ci.yml``); the floor is deliberately loose because
shared runners are noisy — it catches order-of-magnitude regressions,
not percent-level drift.

Interpreting ``BENCH_hotpath.json``:

* ``events_per_sec`` — dispatched simulator events per wall second over
  the measurement window (higher is better; the headline number).
* ``events`` / ``virtual_minutes`` — how much simulated time and work the
  window covered (identical across runs of the same code for a fixed
  seed: the workload is deterministic, only wall time varies).
* ``alloc_blocks_delta`` — net change in live allocator blocks across the
  window (``sys.getallocatedblocks``): sustained growth means the hot
  path is retaining garbage.
* ``tracemalloc_peak_kb`` — peak traced allocation during a short
  instrumented sub-window; tracks per-event allocation pressure.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import platform
import sys
import time
import tracemalloc

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.world import FuseWorld  # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

MODES = {
    # mode -> (hosts, groups, group_size, window virtual minutes)
    "full": (200, 200, 8, 10.0),
    "quick": (60, 40, 6, 3.0),
}


def build_world(hosts: int, groups: int, group_size: int, seed: int, lanes: str = "on"):
    """A bootstrapped overlay with live FUSE groups: the §7.5 steady state."""
    world = FuseWorld(n_nodes=hosts, seed=seed, liveness_lanes=lanes)
    world.bootstrap()
    rng = world.sim.rng.stream("bench-hotpath")
    created = 0
    for _ in range(groups):
        root, *members = rng.sample(world.node_ids, group_size)
        _fid, status, _ = world.create_group_sync(root, members)
        if status == "ok":
            created += 1
    world.run_for_minutes(1.0)  # drain InstallChecking traffic
    return world, created


def measure(world: FuseWorld, window_minutes: float) -> dict:
    sim = world.sim
    window_ms = window_minutes * 60_000.0

    # Allocation pressure probe over a short instrumented sub-window
    # (tracemalloc slows dispatch, so it never overlaps the timed window).
    probe_ms = min(15_000.0, window_ms / 4.0)
    gc.collect()
    tracemalloc.start()
    sim.run(until=sim.now + probe_ms)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    gc.collect()
    blocks_before = sys.getallocatedblocks()
    events_before = sim.events_dispatched
    t0 = time.perf_counter()
    sim.run(until=sim.now + window_ms)
    wall = time.perf_counter() - t0
    events = sim.events_dispatched - events_before
    blocks_after = sys.getallocatedblocks()

    return {
        "events": events,
        "virtual_minutes": window_minutes,
        "wall_seconds": round(wall, 4),
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        "alloc_blocks_delta": blocks_after - blocks_before,
        "tracemalloc_peak_kb": round(peak / 1024.0, 1),
    }


def run_benchmark(mode: str, seed: int, lanes: str = "on") -> dict:
    hosts, groups, group_size, window = MODES[mode]
    t0 = time.perf_counter()
    world, created = build_world(hosts, groups, group_size, seed, lanes)
    setup_wall = time.perf_counter() - t0
    result = measure(world, window)
    plane = world.sim.lane_plane
    lane_stats = {"mode": world.lanes_mode}
    if plane is not None:
        lane_stats.update(
            laned_nodes=plane.lane_count,
            micro_events=plane.micro_dispatched,
            absorbs=plane.absorbs,
            ejects=plane.ejects,
        )
    result["liveness_lanes"] = lane_stats
    result.update(
        {
            "mode": mode,
            "hosts": hosts,
            "groups_requested": groups,
            "groups_created": created,
            "group_size": group_size,
            "seed": seed,
            "setup_wall_seconds": round(setup_wall, 4),
            "python": platform.python_version(),
        }
    )
    return result


def merge_out(path: pathlib.Path, result: dict) -> dict:
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data.setdefault("benchmark", "hotpath")
    data.setdefault("modes", {})
    data["modes"][result["mode"]] = result
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI smoke workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--lanes",
        choices=("on", "off"),
        default="on",
        help="liveness-lane mode; off results merge under a suffixed "
        "mode key (e.g. 'full_lanes_off') so both baselines can coexist",
    )
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    result = run_benchmark(mode, args.seed, lanes=args.lanes)
    if args.lanes == "off":
        result["mode"] = f"{mode}_lanes_off"
    merge_out(args.out, result)
    print(
        f"[bench_hotpath:{mode}] {result['events']} events in "
        f"{result['wall_seconds']}s -> {result['events_per_sec']} events/sec "
        f"(allocs: {result['alloc_blocks_delta']:+d} blocks, "
        f"peak {result['tracemalloc_peak_kb']} KiB) -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
