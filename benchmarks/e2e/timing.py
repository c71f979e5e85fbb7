"""Clocks, calibration and spans for the end-to-end benchmark.

The reference container is a 2-core VM whose speed flips between two
modes about 1.3x apart, for seconds to minutes at a time (a neighbour on
the same physical core).  Raw host time therefore spreads ~20 % between
otherwise identical runs, which no regression bound below 0.25 survives.
Every host-time interval here is bracketed by two runs of a fixed
pure-Python *calibration kernel*; the interval is then scaled by
``REF_SPIN_S / mean(spin before, spin after)``, i.e. reported in the
seconds it would have taken with the machine at its reference speed.
On a quiet reference machine the factor is 1.0 and calibrated time is
host time.  Raw host times are kept beside the calibrated ones in every
span so the scaling is always visible.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Dict, List, NamedTuple, Sequence

#: What one calibration spin takes on the reference container (Intel
#: Xeon @ 2.10 GHz VM, CPython 3.11.7) in its fast mode: the 5th
#: percentile of ~6,000 spins over ten minutes.
REF_SPIN_S = 0.00600


class Calibrator:
    """A fixed unit of interpreter work timed with ``perf_counter``.

    Half arithmetic, half the operations the simulator lives on (slot
    attribute loads, tuple builds, heap pushes/pops, dict stores over a
    working set larger than L2), so that it slows down by the same factor
    as the program when the host does.
    """

    _CELLS = 150_000
    _STEPS = 4_000
    _ARITH = 60_000

    class _Cell:
        __slots__ = ("a",)

        def __init__(self, a: int) -> None:
            self.a = a

    def __init__(self) -> None:
        self._cells = [self._Cell(i) for i in range(self._CELLS)]
        self._order = [(i * 7919) % self._CELLS for i in range(self._STEPS)]
        # Keep the table out of the collector's generations: 150,000 extra
        # tracked objects would lengthen every full collection of the
        # program under test.
        gc.freeze()

    def spin(self) -> float:
        """Seconds one unit took: the faster of two, with the collector
        off, so a stray pause (a full collection of a 4,000-node world
        takes 0.3 s) cannot pass for a slow machine."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return min(self._unit(), self._unit())
        finally:
            if was_enabled:
                gc.enable()

    def _unit(self) -> float:
        push, pop = heapq.heappush, heapq.heappop
        cells = self._cells
        heap: list = []
        seen: dict = {}
        acc = 0
        start = time.perf_counter()
        for i in range(self._ARITH):
            acc += i * i
        for k, i in enumerate(self._order):
            cell = cells[i]
            acc += cell.a
            push(heap, (acc % 1009, k, cell))
            seen[i] = cell
            if k & 1:
                pop(heap)
        return time.perf_counter() - start


class Mark(NamedTuple):
    """One instant on the timeline with a calibration spin inside it.

    ``t_in``/``cpu_in`` close the interval that ends here; ``t_out``/
    ``cpu_out`` open the one that starts here, so the spin itself is in
    neither.
    """

    t_in: float
    cpu_in: float
    spin_s: float
    t_out: float
    cpu_out: float


class Interval(NamedTuple):
    """Host time between two marks: raw, and scaled to reference speed."""

    name: str
    raw_s: float
    cpu_raw_s: float
    factor: float

    @property
    def s(self) -> float:
        return self.raw_s * self.factor

    @property
    def cpu_s(self) -> float:
        return self.cpu_raw_s * self.factor


class Timeline:
    """Marks, and the spans recorded between them.

    Spans are kept in memory (name, start, end, parent, all children of
    the one workload span) and written out with the result.
    """

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self._cal = Calibrator()
        self.spins: List[float] = []
        self.spans: List[Dict[str, object]] = []

    def mark(self) -> Mark:
        t_in, cpu_in = time.perf_counter(), time.process_time()
        spin_s = self._cal.spin()
        self.spins.append(spin_s)
        return Mark(t_in, cpu_in, spin_s, time.perf_counter(), time.process_time())

    def interval(self, name: str, a: Mark, b: Mark, parent: str = "workload") -> Interval:
        factor = REF_SPIN_S / ((a.spin_s + b.spin_s) / 2.0)
        iv = Interval(name, b.t_in - a.t_out, b.cpu_in - a.cpu_out, factor)
        self.spans.append(
            {
                "name": name,
                "parent": parent,
                "start_s": a.t_out - self.origin,
                "end_s": b.t_in - self.origin,
                "cpu_start_s": a.cpu_out,
                "cpu_end_s": b.cpu_in,
                "speed_factor": factor,
            }
        )
        return iv

    def elapsed_s(self, calibrated: bool) -> float:
        """Host time since the origin.  Calibrated: every recorded span
        scaled by its own factor, the rest by the run's median factor."""
        raw = time.perf_counter() - self.origin
        if not calibrated:
            return raw
        leaves = [s for s in self.spans if s["parent"]]
        covered = sum(s["end_s"] - s["start_s"] for s in leaves)
        scaled = sum((s["end_s"] - s["start_s"]) * s["speed_factor"] for s in leaves)
        return scaled + (raw - covered) * self.speed_factor()

    def speed_factor(self) -> float:
        """Reference speed over this run's median speed (1.0 = reference)."""
        return REF_SPIN_S / statistics.median(self.spins)


def pct(ordered: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile of an already sorted sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])
