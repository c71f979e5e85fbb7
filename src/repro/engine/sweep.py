"""Declarative parameter sweeps: grid axes × seed replication.

A :class:`Sweep` describes *what* to run — a cartesian product of named
parameter axes, replicated over a set of base seeds — and expands into the
flat, deterministically ordered list of :class:`~repro.engine.trial.TrialSpec`
the executor consumes.  :func:`run_sweep` is the one call every figure
and scenario run makes: grid × seeds → trials → :class:`ResultSet`.

Seed derivation is position-independent: a trial's seed depends only on
the experiment name, the base seed, and the trial's own grid point — not
on how many other axes or seeds the sweep has.  Adding a grid value or an
extra seed therefore never perturbs the worlds of existing trials.

Paper cross-reference: §7 methodology — the paper varies group size
(Figs 7, 8), loss rate (Figs 11, 12), and scenario (Fig 10) axis by
axis; a :class:`Sweep` is that experimental design made declarative.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.engine.parallel import ResultSink, run_trials
from repro.engine.results import ResultSet
from repro.engine.trial import TrialFn, TrialSpec


def derive_seed(*components: Any) -> int:
    """Deterministically hash ``components`` into a 63-bit seed.

    Stable across processes and Python invocations (unlike ``hash()``,
    which is randomized per process for strings).
    """
    key = "\x1f".join(repr(c) for c in components)
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class Sweep:
    """A parameter grid crossed with a set of base seeds.

    Attributes:
        grid: axis name -> sequence of values.  The expansion order is the
            cartesian product with the *last* axis varying fastest, per
            base seed.  An empty grid yields one trial per seed.
        seeds: base seeds; the whole grid is replicated once per seed.
    """

    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)

    def grid_points(self) -> List[Dict[str, Any]]:
        """The grid's points in deterministic expansion order."""
        names = list(self.grid)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.grid[n] for n in names))
        ]

    @property
    def n_trials(self) -> int:
        return len(self.grid_points()) * len(self.seeds)

    def expand(self, experiment: str, context: Any = None) -> List[TrialSpec]:
        """Flatten into trial specs with derived per-trial seeds."""
        specs: List[TrialSpec] = []
        for base_seed in self.seeds:
            for point in self.grid_points():
                seed = derive_seed(
                    experiment, base_seed, sorted(point.items(), key=lambda kv: kv[0])
                )
                specs.append(
                    TrialSpec(
                        experiment=experiment,
                        index=len(specs),
                        seed=seed,
                        base_seed=base_seed,
                        params=point,
                        context=context,
                    )
                )
        return specs


def run_sweep(
    experiment: str,
    fn: TrialFn,
    *,
    seeds: Sequence[int],
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    context: Any = None,
    jobs: int = 1,
    on_result: Optional[ResultSink] = None,
    keep_results: bool = True,
) -> ResultSet:
    """Run ``fn`` over every grid point × base seed and aggregate.

    ``experiment`` names the run and is an input to every trial's derived
    seed; ``context`` rides along on each spec; ``jobs``, ``on_result``
    and ``keep_results`` go to :func:`~repro.engine.parallel.run_trials`.
    """
    specs = Sweep(grid=dict(grid or {}), seeds=tuple(seeds)).expand(experiment, context)
    results = run_trials(
        fn, specs, jobs=jobs, on_result=on_result, keep_results=keep_results
    )
    return ResultSet(results, experiment=experiment)
