"""Trial executor: fan independent trials across cores, or run serially.

Because each trial owns an isolated :class:`~repro.sim.kernel.Simulator`
seeded from its spec, the *results* of a trial are a pure function of the
spec — so executing trials in worker processes and executing them in a
serial loop produce identical measurements, and aggregate results are
seed-for-seed identical for any ``jobs`` value.  Only wall-clock timings
differ.

The worker entry point is :func:`repro.engine.trial.run_trial` partially
applied to the experiment's module-level trial function, so everything the
pool ships is picklable by reference.  ``fork`` is preferred when the
platform offers it (cheap on Linux); ``spawn`` is the fallback.

Paper cross-reference: §7 methodology — regenerating the paper's
evaluation is embarrassingly parallel across runs; this module is the
``--jobs`` flag behind every experiment and scenario CLI, and
:func:`add_run_options` parses it (with ``--seeds``) for both.
"""

from __future__ import annotations

import argparse
import functools
import multiprocessing
from typing import Callable, Iterable, List, Optional, Sequence

from repro.engine.trial import TrialFn, TrialResult, TrialSpec, run_trial

#: Streaming hook: receives each completed :class:`TrialResult` in spec
#: order, as soon as it is available.
ResultSink = Callable[[TrialResult], None]


def _pick_start_method() -> str:
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def run_trials(
    fn: TrialFn,
    specs: Iterable[TrialSpec],
    jobs: int = 1,
    on_result: Optional[ResultSink] = None,
    keep_results: bool = True,
) -> List[TrialResult]:
    """Run every trial and return results in spec order.

    Args:
        fn: module-level trial function (picklable when ``jobs > 1``).
        specs: trial specs, typically from :meth:`Sweep.expand`.
        jobs: worker process count; ``<= 1`` means a serial in-process
            loop (the deterministic fallback — no multiprocessing at all).
        on_result: streaming sink invoked with each completed trial *in
            spec order* as soon as it is available (``imap`` under the
            hood, so a parallel run streams exactly the sequence a serial
            run would).  Large sharded sweeps archive incrementally here.
        keep_results: set False to drop results after the sink has seen
            them — the memory-lean mode for sweeps whose only consumer is
            ``on_result``; the return value is then an empty list.
    """
    spec_list: Sequence[TrialSpec] = list(specs)
    jobs = min(max(1, int(jobs)), len(spec_list)) if spec_list else 1
    results: List[TrialResult] = []
    if jobs <= 1:
        for spec in spec_list:
            result = run_trial(fn, spec)
            if on_result is not None:
                on_result(result)
            if keep_results:
                results.append(result)
        return results

    ctx = multiprocessing.get_context(_pick_start_method())
    worker = functools.partial(run_trial, fn)
    with ctx.Pool(processes=jobs) as pool:
        # chunksize=1: trials are coarse-grained; balance beats batching.
        # imap (not map) so completed shards stream out in spec order
        # while later shards are still running.
        for result in pool.imap(worker, spec_list, chunksize=1):
            if on_result is not None:
                on_result(result)
            if keep_results:
                results.append(result)
    return results


def _jobs(text: str) -> int:
    return max(1, int(text))


def _seeds(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expects comma-separated integers: {exc}")


def add_run_options(parser: argparse.ArgumentParser, trials: str) -> None:
    """Add the ``--jobs`` and ``--seeds`` options every run CLI shares.

    Both are parsed here: ``--jobs`` below 1 reads back as 1 (a serial
    run), so a CLI reports the job count it ran with; ``--seeds`` is a
    list of ints, or None when not given.
    """
    parser.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        metavar="N",
        help=f"worker processes for {trials} (default: 1, serial)",
    )
    parser.add_argument(
        "--seeds",
        type=_seeds,
        metavar="S1,S2,...",
        help="comma-separated base seeds replacing the default; "
        "the whole sweep is replicated per seed",
    )
