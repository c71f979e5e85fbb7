"""Command-line experiment runner.

Regenerate any paper figure/table from a shell::

    python -m repro.experiments.run fig7
    python -m repro.experiments.run fig9 --paper-scale --jobs 4
    python -m repro.experiments.run fig7 --seeds 1,2,3 --json --out fig7.json
    python -m repro.experiments.run all --jobs 8 --out results/

Every experiment runs through the shared trial engine
(:mod:`repro.engine`): ``--jobs N`` fans its independent trials across N
worker processes (aggregate results are seed-for-seed identical to
``--jobs 1``), ``--seeds`` replicates the sweep over extra base seeds,
and ``--json`` / ``--out`` archive machine-readable per-trial results.
Each table ends with a PASS/FAIL line per paper claim (see docs/FIGURES.md).

``--paper-scale`` uses the paper's parameters (400 nodes; 16,000 for the
§4 simulation) and can take minutes; the default scaled-down configs run
in seconds each.

For fault timelines beyond the paper's figures — arbitrary churn /
partition / loss compositions — use the scenario CLI instead:
``python -m repro.scenarios.run`` (docs/SCENARIOS.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
from typing import Dict, List, Mapping, Optional, Tuple

from repro.engine import add_run_options
from repro.net.backends.wallclock import wall_seconds
from repro.experiments import (
    ablation,
    agreement,
    calibration,
    crash_notification,
    creation_latency,
    churn,
    false_positives,
    loss_rates,
    notification_latency,
    steady_state,
    svtree_stats,
)
from repro.experiments.report import Figure, format_report

#: name -> Figure: every figure the driver modules declare.
EXPERIMENTS: Dict[str, Figure] = {
    figure.name: figure
    for module in (
        ablation,
        agreement,
        calibration,
        crash_notification,
        creation_latency,
        churn,
        false_positives,
        loss_rates,
        notification_latency,
        steady_state,
        svtree_stats,
    )
    for figure in vars(module).values()
    if isinstance(figure, Figure)
}


def run_one(
    name: str,
    paper_scale: bool,
    jobs: int = 1,
    seeds: Optional[List[int]] = None,
    as_json: bool = False,
    others: Optional[Mapping[str, object]] = None,
) -> Tuple[str, object]:
    """Run one experiment; returns (rendered output, result object)."""
    figure = EXPERIMENTS[name]
    config = figure.paper_scale() if paper_scale else figure.config()
    started = wall_seconds()
    result = figure.run(config, jobs=jobs, seeds=seeds)
    elapsed = wall_seconds() - started
    if as_json:
        payload = result.result_set.to_json_dict()
        payload["config"] = dataclasses.asdict(config)
        payload["wall_seconds"] = round(elapsed, 3)
        payload["jobs"] = jobs
        rendered = json.dumps(payload, indent=2, sort_keys=True, default=str)
    else:
        rendered = (
            format_report(result, others)
            + f"\n[{name}: {elapsed:.1f}s wall clock, jobs={jobs}, "
            f"{len(result.result_set)} trials]"
        )
    return rendered, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's full parameters (slow)",
    )
    add_run_options(parser, "independent trials")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable per-trial results instead of tables",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write output to PATH (a directory when running 'all') "
        "instead of only printing it",
    )
    args = parser.parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    out_dir: Optional[pathlib.Path] = None
    out_file: Optional[pathlib.Path] = None
    if args.out:
        path = pathlib.Path(args.out)
        if args.experiment == "all":
            out_dir = path
            out_dir.mkdir(parents=True, exist_ok=True)
        else:
            out_file = path
            if out_file.parent != pathlib.Path(""):
                out_file.parent.mkdir(parents=True, exist_ok=True)

    suffix = "json" if args.json else "txt"
    results: Dict[str, object] = {}
    for name in names:
        rendered, results[name] = run_one(
            name, args.paper_scale, jobs=args.jobs, seeds=args.seeds, as_json=args.json,
            others=results,
        )
        # Archive before printing: a closed stdout pipe (| head, | less)
        # must not lose the --out artifact to BrokenPipeError.
        if out_dir is not None:
            (out_dir / f"{name}.{suffix}").write_text(rendered + "\n")
        elif out_file is not None:
            out_file.write_text(rendered + "\n")
        print(rendered)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
