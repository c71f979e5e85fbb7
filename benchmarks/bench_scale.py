"""Paper-scale world benchmark: setup wall time, events/sec, memory per node.

Where ``bench_hotpath`` measures the event core's dispatch rate on a
fixed 200-host workload, this benchmark measures the *scaling axes* the
paper's 16,000-node simulator runs live on:

* ``setup_seconds`` — wall time from ``FuseWorld(n)`` through a settled
  ``bootstrap()`` (the auto-scaled join schedule above 400 nodes; see
  ``FuseWorld.join_interval_ms``).
* ``events_per_sec`` — dispatch rate over a short post-bootstrap steady
  window with live FUSE groups.
* ``peak_kb_per_node`` — tracemalloc peak during an identical traced
  setup pass, divided by the node count (tracemalloc slows execution
  several-fold, so the traced pass is separate and never timed).
* ``route_cache`` stats — proof that routing stays lazy: only host pairs
  that communicated have materialized routes, only routers that
  originated traffic have Dijkstra trees.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py            # full: 400, 2000, 16000
    PYTHONPATH=src python benchmarks/bench_scale.py --quick    # CI: 400, 2000
    PYTHONPATH=src python benchmarks/bench_scale.py --no-trace # skip tracemalloc passes

The JSON written by ``--out`` (default: repo-root ``BENCH_scale.json``)
is merged per node count, so a ``--quick`` run does not clobber the
committed 16,000-node full-mode baseline.  CI runs ``--quick`` and
asserts generous floors against the committed baseline (see
``.github/workflows/ci.yml``); ``docs/PERFORMANCE.md`` explains how to
read the numbers.
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

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_scale.json"

#: node count -> (groups, group size, steady window virtual minutes)
SCALES = {
    400: (40, 8, 2.0),
    2000: (100, 8, 1.0),
    16000: (100, 8, 1.0),
}
QUICK_SCALES = (400, 2000)
FULL_SCALES = (400, 2000, 16000)


def build_world(n: int, seed: int, lanes: str = "on"):
    world = FuseWorld(n_nodes=n, seed=seed, liveness_lanes=lanes)
    world.bootstrap()
    return world


def add_groups(world: FuseWorld, groups: int, group_size: int) -> int:
    rng = world.sim.rng.stream("bench-scale")
    created = 0
    for _ in range(groups):
        root, *members = rng.sample(world.node_ids, group_size)
        _fid, status, _ = world.create_group_sync(root, members)
        if status == "ok":
            created += 1
    return created


def measure_scale(n: int, seed: int, trace_memory: bool, lanes: str = "on") -> dict:
    groups, group_size, window_minutes = SCALES[n]

    # Pass 1 — timed, untraced.
    gc.collect()
    t0 = time.perf_counter()
    world = build_world(n, seed, lanes)
    setup_seconds = time.perf_counter() - t0
    setup_events = world.sim.events_dispatched
    members = world.overlay.member_count
    routes_after_bootstrap = world.net.routes.cached_route_count
    trees_after_bootstrap = world.net.routes.cached_tree_count

    created = add_groups(world, groups, group_size)
    world.run_for_minutes(1.0)  # drain InstallChecking traffic

    events_before = world.sim.events_dispatched
    plane = world.sim.lane_plane
    micro_before = plane.micro_dispatched if plane is not None else 0
    t0 = time.perf_counter()
    world.run_for_minutes(window_minutes)
    window_wall = time.perf_counter() - t0
    window_events = world.sim.events_dispatched - events_before

    lane_stats = {"mode": world.lanes_mode}
    if plane is not None:
        window_micro = plane.micro_dispatched - micro_before
        lane_stats.update(
            laned_nodes=plane.lane_count,
            window_micro_events=window_micro,
            window_micro_fraction=round(window_micro / window_events, 4)
            if window_events
            else 0.0,
            absorbs=plane.absorbs,
            ejects=plane.ejects,
        )

    result = {
        "n_nodes": n,
        "seed": seed,
        "setup_seconds": round(setup_seconds, 3),
        "setup_events": setup_events,
        "overlay_members": members,
        "routes_cached_after_bootstrap": routes_after_bootstrap,
        "dijkstra_trees_after_bootstrap": trees_after_bootstrap,
        "groups_created": created,
        "window_virtual_minutes": window_minutes,
        "window_events": window_events,
        "events_per_sec": round(window_events / window_wall, 1) if window_wall else 0.0,
        "liveness_lanes": lane_stats,
        "python": platform.python_version(),
    }
    del world
    gc.collect()

    # Pass 2 — identical setup under tracemalloc for peak allocation.
    if trace_memory:
        tracemalloc.start()
        traced = build_world(n, seed, lanes)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        result["setup_peak_kb"] = round(peak / 1024.0, 1)
        result["peak_kb_per_node"] = round(peak / 1024.0 / n, 2)
        del traced
        gc.collect()
    return result


def merge_out(path: pathlib.Path, results: list, section: str = "scales") -> None:
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data.setdefault("benchmark", "scale")
    data.setdefault(section, {})
    for result in results:
        data[section][str(result["n_nodes"])] = result
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI sizes only (400, 2000)")
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="skip the tracemalloc passes (they re-run setup, traced)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--lanes",
        choices=("on", "off"),
        default="on",
        help="liveness-lane mode; 'off' results merge into a separate "
        "'scales_lanes_off' section so both baselines can be committed",
    )
    args = parser.parse_args(argv)

    scales = QUICK_SCALES if args.quick else FULL_SCALES
    results = []
    for n in scales:
        result = measure_scale(n, args.seed, trace_memory=not args.no_trace, lanes=args.lanes)
        results.append(result)
        peak = result.get("peak_kb_per_node")
        print(
            f"[bench_scale n={n}] setup {result['setup_seconds']}s "
            f"({result['setup_events']} events), steady "
            f"{result['events_per_sec']} events/sec"
            + (f", {peak} KiB/node peak" if peak is not None else "")
            + f", {result['routes_cached_after_bootstrap']} routes / "
            f"{result['dijkstra_trees_after_bootstrap']} trees cached"
        )
    section = "scales" if args.lanes == "on" else "scales_lanes_off"
    merge_out(args.out, results, section=section)
    print(f"-> {args.out} ({section})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
