"""Shared trial engine: declarative sweeps, multi-core execution, unified
aggregation.

Paper cross-reference: this is the §7 evaluation *methodology* layer —
the paper reports each figure over repeated runs with controlled
parameters; here that becomes an explicit grid × seeds decomposition
with machine-checkable serial/parallel equivalence.  The figures
themselves live in :mod:`repro.experiments`; open-ended fault timelines
run through the same engine via :mod:`repro.scenarios`.

Every experiment in :mod:`repro.experiments` is expressed as:

1. a **trial function** — a module-level callable building one isolated
   world from a :class:`TrialSpec` and returning a measurements dict
   (:mod:`repro.engine.trial`);
2. one :func:`run_sweep` call — the parameter grid × seed replication
   (:mod:`repro.engine.sweep`) expanded into trial specs and executed
   serially or across processes with identical results either way
   (:mod:`repro.engine.parallel`);
3. an **aggregation** step over the returned :class:`ResultSet`
   (:mod:`repro.engine.results`).

Minimal use::

    from repro.engine import run_sweep

    def _trial(spec):
        world = build_world(seed=spec.seed, size=spec["size"])
        return {"latency_ms": measure(world)}

    rs = run_sweep("demo", _trial, grid={"size": (2, 4, 8)}, seeds=(1, 2), jobs=4)
    print(rs.format_table())
"""

from repro.engine.parallel import add_run_options, run_trials
from repro.engine.results import ResultSet, format_cdf, format_table
from repro.engine.sweep import Sweep, derive_seed, run_sweep
from repro.engine.trial import Measurements, TrialFn, TrialResult, TrialSpec, run_trial

__all__ = [
    "Measurements",
    "ResultSet",
    "Sweep",
    "TrialFn",
    "TrialResult",
    "TrialSpec",
    "add_run_options",
    "derive_seed",
    "format_cdf",
    "format_table",
    "run_sweep",
    "run_trial",
    "run_trials",
]
