#!/usr/bin/env python
"""What the cyclic collector costs a simulated world, and whether the
dispatch path still feeds it.

Usage:  python scripts/gc_share.py --nodes 400 [--window steady|churn] [--check]

Builds ``FuseWorld(N)`` and bootstraps it (plus, with ``--window``, one
simulated window on top) twice in this process:

1. with the collector as the interpreter started it, timing every
   collection through ``gc.callbacks``: seconds and passes by generation,
   the share of the run's wall time, how many passes started while
   ``Simulator.run()`` was on the stack, and the tracked-object count with
   a histogram of the fifteen commonest types;
2. with the collector off, followed by one ``gc.collect()`` under
   ``DEBUG_SAVEALL``: the number of unreachable objects the run left
   behind, by type.  The dispatch path is meant to leave none
   (docs/PERFORMANCE.md, "Memory management").

``--window steady`` lays 32 groups of 8 and runs five simulated minutes;
``--window churn`` creates five 8-member groups per simulated second for
one simulated minute, signals each 30 s after it goes live and runs one
minute more (the shape of the ``group_churn_400`` benchmark workload).

``--check`` exits 1 if a collection started inside ``Simulator.run()`` or
the collector-off run left anything unreachable.
"""

from __future__ import annotations

import argparse
import collections
import gc
import pathlib
import sys
import time
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.sim.kernel import Simulator  # noqa: E402
from repro.world import FuseWorld  # noqa: E402

WORLD_SEED = 7  # the benchmark's deployment (benchmarks/e2e)
RUN_CODE = Simulator.run.__code__


class CollectorClock:
    """A ``gc.callbacks`` hook: seconds and passes per generation, and
    the passes that began under ``Simulator.run()``."""

    def __init__(self) -> None:
        self.seconds = [0.0, 0.0, 0.0]
        self.passes = [0, 0, 0]
        self.inside_run = 0
        self._t0 = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code is RUN_CODE:
                    self.inside_run += 1
                    break
                frame = frame.f_back
            self._t0 = time.perf_counter()
        else:
            generation = info["generation"]
            self.seconds[generation] += time.perf_counter() - self._t0
            self.passes[generation] += 1


def workload(n_nodes: int, window: Optional[str]) -> FuseWorld:
    world = FuseWorld(n_nodes=n_nodes, seed=WORLD_SEED)
    world.bootstrap()
    sim = world.sim
    rng = sim.rng.stream("gc_share")
    if window == "steady":
        for _ in range(32):
            root, *members = rng.sample(world.node_ids, 8)
            world.create_group(root, members)
        for _ in range(30):
            world.run_for(10_000.0)
    elif window == "churn":

        def create() -> None:
            root, *members = rng.sample(world.node_ids, 8)
            group = world.create_group(root, members)
            group.on_live(lambda g: sim.call_after(30_000.0, g.signal))

        start = world.now
        for k in range(300):
            sim.call_at(start + k * 200.0, create)
        for _ in range(12):
            world.run_for(10_000.0)
    return world


def histogram(objects, top: int) -> List[str]:
    counts = collections.Counter(
        f"{type(o).__module__}.{type(o).__qualname__}" for o in objects
    )
    return [f"  {count:>9,}  {name}" for name, count in counts.most_common(top)]


def measure(n_nodes: int, window: Optional[str]) -> CollectorClock:
    clock = CollectorClock()
    gc.collect()
    gc.callbacks.append(clock)
    t0 = time.perf_counter()
    try:
        world = workload(n_nodes, window)
        wall = time.perf_counter() - t0
    finally:
        gc.callbacks.remove(clock)
    total = sum(clock.seconds)
    print(f"run: {wall:.2f} s wall, {world.sim.events_dispatched:,} events, "
          f"{wall * 1000.0 / n_nodes:.2f} ms/node")
    print(f"collector: {total:.2f} s = {100.0 * total / wall:.1f} % of the run")
    for generation in range(3):
        print(f"  gen {generation}: {clock.seconds[generation]:.3f} s "
              f"in {clock.passes[generation]:,} passes")
    print(f"  passes started inside Simulator.run(): {clock.inside_run:,}")
    tracked = gc.get_objects()
    print(f"tracked objects: {len(tracked):,}")
    print("\n".join(histogram(tracked, 15)))
    return clock


def unreachable_after(n_nodes: int, window: Optional[str]) -> int:
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        world = workload(n_nodes, window)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    print(f"collector-off run: {len(found):,} unreachable objects "
          f"({world.sim.events_dispatched:,} events)")
    if found:
        print("\n".join(histogram(found, 15)))
    return len(found)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--window", choices=("steady", "churn"))
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a collection inside Simulator.run() or any unreachable object")
    args = parser.parse_args(argv)
    if args.nodes < 8:
        parser.error("--nodes must be at least 8")

    clock = measure(args.nodes, args.window)
    unreachable = unreachable_after(args.nodes, args.window)
    if args.check and (clock.inside_run or unreachable):
        print(f"FAIL: {clock.inside_run} collections inside Simulator.run(), "
              f"{unreachable} unreachable objects", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
