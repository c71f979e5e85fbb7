"""Command-line scenario runner.

Run any built-in scenario by name, or any TOML/JSON spec file::

    python -m repro.scenarios.run --list
    python -m repro.scenarios.run steady
    python -m repro.scenarios.run partition-heal --quick --jobs 2
    python -m repro.scenarios.run paper-fig9 --seeds 4,5,6 --jobs 4 --json
    python -m repro.scenarios.run examples/scenario_creeping_loss.toml --out out.json

Scenarios execute through the shared trial engine
(:mod:`repro.scenarios.runner` -> :mod:`repro.engine`): ``--seeds``
replicates the scenario over base seeds, ``--jobs`` fans replicas across
processes with seed-for-seed-identical aggregate metrics, and
``--json``/``--out`` archive per-trial measurements.

**Sweep grids** map a whole response surface in one invocation: each
``--grid axis=v1,v2,...`` adds an axis (``n_nodes`` or
``tracks.<i>.<field>``; seeds replicate via ``--seeds``, not a grid
axis), the cartesian product × ``--seeds`` becomes
independent shards fanned over ``--jobs`` processes, and ``--out``
archives one JSON line per shard *incrementally* as shards complete (in
spec order — the file is byte-identical for any ``--jobs`` value and
nothing accumulates in memory)::

    python -m repro.scenarios.run steady --grid n_nodes=400,2000 \\
        --grid tracks.0.n_groups=12,48 --jobs 4 --out sweep.jsonl

**Property checking**: a scenario's ``[expect]`` declarations (built-ins
all have them; specs via the ``[expect]`` table) are evaluated against
every trial's measurements and any violation makes the run exit
non-zero — skip with ``--no-expect``.  Reference: ``docs/API.md``.

The full DSL reference lives in ``docs/SCENARIOS.md``; the scaling model
behind large sweeps lives in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Sequence

from repro.engine import add_run_options
from repro.net.backends.wallclock import wall_seconds
from repro.scenarios.builtin import BUILTIN, catalogue
from repro.scenarios.expect import evaluate_expectations
from repro.scenarios.runner import apply_overrides, run_scenario, run_scenario_sweep
from repro.scenarios.spec import SpecError, load
from repro.scenarios.timeline import Scenario


def _parse_grid_value(text: str) -> Any:
    """int -> float -> bare string, in that order."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text in ("true", "false"):
        return text == "true"
    return text


def _parse_grid(entries: Sequence[str]) -> Dict[str, List[Any]]:
    grid: Dict[str, List[Any]] = {}
    for entry in entries:
        axis, sep, values = entry.partition("=")
        if not sep or not axis or not values:
            raise SystemExit(
                f"--grid expects axis=v1,v2,... (got {entry!r})"
            )
        if axis in grid:
            raise SystemExit(f"--grid axis {axis!r} given twice")
        grid[axis] = [
            _parse_grid_value(part) for part in values.split(",") if part.strip()
        ]
        if not grid[axis]:
            raise SystemExit(f"--grid axis {axis!r} has no values")
    return grid


def _resolve(target: str, quick: bool) -> Scenario:
    factory = BUILTIN.get(target)
    if factory is not None:
        return factory(quick)
    path = pathlib.Path(target)
    if path.suffix in (".toml", ".json"):
        if not path.exists():
            raise SystemExit(f"spec file not found: {path}")
        try:
            return load(path)
        except SpecError as exc:
            raise SystemExit(f"bad scenario spec {path}: {exc}")
    raise SystemExit(
        f"unknown scenario {target!r} — run with --list, or pass a "
        ".toml/.json spec file"
    )


def _list_text() -> str:
    rows = catalogue()
    width = max(len(name) for name, _desc in rows)
    lines = [f"{len(rows)} built-in scenarios:", ""]
    for name, desc in rows:
        lines.append(f"  {name:<{width}}  {desc}")
    lines.append("")
    lines.append("Any .toml/.json spec file is also accepted (docs/SCENARIOS.md).")
    return "\n".join(lines)


def _check_expectations(scenario: Scenario, trial, args, violations: List[str]) -> None:
    """Evaluate the scenario's [expect] block against one trial."""
    if args.no_expect or not scenario.expect:
        return
    label = f"seed={trial.spec.base_seed}"
    if trial.spec.params:
        label += f" params={dict(trial.spec.params)}"
    for outcome in evaluate_expectations(scenario.expect, trial.measurements):
        if not outcome.ok:
            violations.append(f"{label}: {outcome.violation}")


def _report_expectations(scenario: Scenario, violations: List[str], args) -> int:
    """Print the property-check verdict; non-zero exit on violation."""
    if args.no_expect or not scenario.expect:
        return 0
    # With --json, stdout carries only the machine-readable results.
    stream = sys.stderr if args.json else sys.stdout
    declared = ", ".join(str(e) for e in scenario.expect)
    if not violations:
        print(f"[expect] PASS: {declared}", file=stream)
        return 0
    print(f"[expect] FAIL ({len(violations)} violation(s)): {declared}", file=stream)
    for line in violations:
        print(f"[expect]   {line}", file=stream)
    return 1


def _run_sweep(scenario: Scenario, args) -> int:
    """Sharded sweep: stream one JSON line per completed shard to --out.

    The archive lines carry no timing, so the file is byte-identical for
    any ``--jobs`` value; shards are never accumulated in memory.
    """
    grid = _parse_grid(args.grid)
    # Validate every axis against the scenario *before* touching --out:
    # a typo'd axis must fail cleanly, not truncate an existing archive.
    try:
        apply_overrides(scenario, {axis: values[0] for axis, values in grid.items()})
    except ValueError as exc:
        raise SystemExit(f"bad --grid axis: {exc}")
    out_path = pathlib.Path(args.out) if args.out else None
    if out_path is not None and out_path.parent != pathlib.Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_file = out_path.open("w") if out_path is not None else None

    totals = {"trials": 0, "notifications_delivered": 0.0, "spurious_groups": 0.0}
    violations: List[str] = []
    started = wall_seconds()

    def sink(trial) -> None:
        totals["trials"] += 1
        _check_expectations(scenario, trial, args, violations)
        m = trial.measurements
        totals["notifications_delivered"] += m.get("notifications_delivered", 0)
        totals["spurious_groups"] += m.get("spurious_groups", 0)
        line = json.dumps(trial.to_json_dict(include_timing=False), sort_keys=True)
        if out_file is not None:
            out_file.write(line + "\n")
            out_file.flush()
        if args.json:
            # --json streams the same deterministic shard lines to stdout.
            print(line, flush=True)
        print(
            f"[shard {trial.spec.index}] params={dict(trial.spec.params)} "
            f"seed={trial.spec.base_seed} "
            f"msgs/s={m.get('msgs_per_sec', 0.0):.1f} "
            f"({trial.wall_seconds:.1f}s)",
            file=sys.stderr,
        )

    try:
        run_scenario_sweep(
            scenario,
            grid,
            jobs=args.jobs,
            seeds=args.seeds,
            on_result=sink,
            keep_results=False,
        )
    finally:
        if out_file is not None:
            out_file.close()
    elapsed = wall_seconds() - started
    where = f" -> {out_path}" if out_path is not None else ""
    print(
        f"[sweep {scenario.name}: {totals['trials']} shards, "
        f"{int(totals['notifications_delivered'])} notifications, "
        f"{int(totals['spurious_groups'])} spurious groups, "
        f"{elapsed:.1f}s wall, jobs={args.jobs}]{where}",
        # With --json, stdout carries only the shard JSON lines.
        file=sys.stderr if args.json else sys.stdout,
    )
    return _report_expectations(scenario, violations, args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios.run",
        description="Run a named or spec-file scenario through the trial engine.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        help="built-in scenario name (see --list) or a .toml/.json spec file",
    )
    parser.add_argument(
        "--list", action="store_true", help="list built-in scenarios and exit"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized variant of a built-in scenario (ignored for spec files)",
    )
    add_run_options(parser, "seed replicas and sweep shards")
    parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="AXIS=V1,V2,...",
        help="add a sweep axis (n_nodes or tracks.<i>.<field>); "
        "repeatable — the cartesian product x --seeds becomes "
        "independent shards fanned over --jobs, archived incrementally "
        "to --out as one JSON line per shard (--json streams the same "
        "lines to stdout)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable per-trial results instead of the table",
    )
    parser.add_argument(
        "--out", metavar="PATH", help="also write the output to PATH"
    )
    parser.add_argument(
        "--no-expect",
        action="store_true",
        help="skip the scenario's [expect] assertions (normally any "
        "violation makes the run exit non-zero)",
    )
    args = parser.parse_args(argv)

    if args.list:
        print(_list_text())
        return 0
    if not args.scenario:
        parser.error("pass a scenario name or spec file (or --list)")

    scenario = _resolve(args.scenario, args.quick)
    if args.grid:
        return _run_sweep(scenario, args)
    started = wall_seconds()
    result = run_scenario(scenario, jobs=args.jobs, seeds=args.seeds)
    elapsed = wall_seconds() - started

    if args.json:
        payload = result.result_set.to_json_dict()
        payload["scenario"] = scenario.name
        payload["n_nodes"] = scenario.n_nodes
        payload["phases"] = [
            {"name": p.name, "minutes": p.minutes, "measure": p.measure}
            for p in scenario.phases
        ]
        payload["wall_seconds"] = round(elapsed, 3)
        payload["jobs"] = args.jobs
        rendered = json.dumps(payload, indent=2, sort_keys=True, default=str)
    else:
        rendered = result.format_table() + (
            f"\n[{scenario.name}: {elapsed:.1f}s wall clock, jobs={args.jobs}, "
            f"{len(result.result_set)} trials]"
        )

    if args.out:
        out = pathlib.Path(args.out)
        if out.parent != pathlib.Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered + "\n")
    print(rendered)

    violations: List[str] = []
    for trial in result.result_set:
        _check_expectations(scenario, trial, args, violations)
    return _report_expectations(scenario, violations, args)


if __name__ == "__main__":
    sys.exit(main())
