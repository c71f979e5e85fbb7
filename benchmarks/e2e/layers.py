"""Layer attribution for the traced run.

``Tracer`` holds one ``cProfile.Profile`` per phase of a workload
(``setup``: world constructor + ``bootstrap()``; ``run``: everything
after it).  ``self_seconds`` buckets each profile's ``tottime`` by the
``repro`` module a function lives in, under the layer names the README
tables use.  Time inside C builtins and stdlib helpers (``heapq``,
``dict``, ``random``, ``json``) is charged to the repro module that
called them, through the profiler's callers table, instead of being
lumped as "builtins".
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Dict, Optional, Tuple

#: module prefix -> layer, longest prefix first.
LAYER_OF_MODULE = (
    ("repro/net/backends/codec", "net.backends.codec"),
    ("repro/net/backends/asynckernel", "net.backends.asynckernel"),
    ("repro/net/backends/wallclock", "net.backends.asynckernel"),
    ("repro/net/backends/liveworld", "world"),
    ("repro/net/backends/", "net.backends.livenet"),
    ("repro/net/mercator", "net.topology"),
    ("repro/net/topology", "net.topology"),
    ("repro/net/routing", "net.routing"),
    ("repro/net/faults", "net.faults"),
    ("repro/net/", "net.network"),
    ("repro/sim/events", "sim.events"),
    ("repro/sim/lanes", "sim.lanes"),
    ("repro/sim/", "sim.kernel"),
    ("repro/overlay/", "overlay.skipnet"),
    ("repro/fuse/api", "fuse.api"),
    ("repro/fuse/", "fuse.service"),
    ("repro/scenarios/", "scenarios"),
    ("repro/engine/", "scenarios"),
    ("repro/world", "world"),
    ("benchmarks/e2e/", "harness"),
    ("/asyncio/", "net.backends.asyncio_stdlib"),
    ("/selectors.py", "net.backends.asyncio_stdlib"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_OF_MODULE))
PHASES = ("setup", "run")

FuncKey = Tuple[str, int, str]


class Tracer:
    """Profiles the phases of one workload run, one at a time."""

    tracing = True

    def __init__(self) -> None:
        self.profiles = {phase: cProfile.Profile() for phase in PHASES}
        self._active: Optional[cProfile.Profile] = None

    def start(self, phase: str) -> None:
        self._active = self.profiles[phase]
        self._active.enable()

    def stop(self) -> None:
        if self._active is not None:
            self._active.disable()
            self._active = None


def layer_of(func: FuncKey) -> Optional[str]:
    filename = func[0].replace("\\", "/")
    for fragment, layer in LAYER_OF_MODULE:
        if fragment in filename:
            return layer
    return None


def is_idle_wait(func: FuncKey) -> bool:
    """The event loop asleep in ``select``: wall time, not work."""
    return func[0] == "~" and "select." in func[2]


def self_seconds(profile: cProfile.Profile) -> Tuple[Dict[str, float], Dict[str, int]]:
    """(tottime, primitive calls) per layer for one profile, the event
    loop's idle waits left out.  Time that cannot be charged to any layer
    (calls made straight from a frame that was already running when the
    profile began, such as the workload's own ``gc.collect()``) is
    reported under ``"other"``."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    shares: Dict[FuncKey, Dict[str, float]] = {}

    def share_of(func: FuncKey, path: frozenset) -> Dict[str, float]:
        """How ``func``'s time splits over layers: its own layer, or its
        callers' layers weighted by the time spent under each caller."""
        if func in shares:
            return shares[func]
        layer = layer_of(func)
        if layer is not None:
            out = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            weights = {c: edge[2] for c, edge in callers.items() if c not in path and c != func}
            total = sum(weights.values())
            out = {}
            if total > 0.0:
                for caller, weight in weights.items():
                    for name, frac in share_of(caller, path | {func}).items():
                        out[name] = out.get(name, 0.0) + frac * weight / total
            else:
                out = {"other": 1.0}
        if not path:
            shares[func] = out
        return out

    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        if is_idle_wait(func):
            continue
        for layer, frac in share_of(func, frozenset()).items():
            seconds[layer] = seconds.get(layer, 0.0) + tottime * frac
        own = layer_of(func)
        if own is not None:
            calls[own] = calls.get(own, 0) + ncalls
    return seconds, calls
