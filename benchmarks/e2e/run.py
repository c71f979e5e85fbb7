"""End-to-end and layer-by-layer benchmark of the FUSE reproduction.

    python3 benchmarks/e2e/run.py                         # all four workloads, one child process each
    python3 benchmarks/e2e/run.py --workload steady_4k --seed 11 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --workload steady_4k --trace 1      # per-layer metrics
    python3 benchmarks/e2e/run.py --probes                            # layer probes only
    python3 benchmarks/e2e/run.py compare A.json B.json               # see compare.py

With ``--workload`` the run happens in this process (start it fresh) and
the last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  The exit code is non-zero when an operation failed, an
expectation did not hold or two bootstraps of one seed disagreed.
See README.md beside this file.
"""

from __future__ import annotations

import time

ORIGIN = time.perf_counter()  # before anything of the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

DEFAULT_SECONDS = 12.0
SMOKE_SECONDS = {"live_soak_128": 3.0}  # the others: 1.0
SETUP_REPEATS = 3


# ----------------------------------------------------------------------
# Naming what a workload run produced
# ----------------------------------------------------------------------
def end_to_end(outcome, tl) -> Dict[str, float]:
    """Rates are medians over the window's slices, each slice scaled by
    its own calibration factor: one slow slice, or one bad calibration
    sample, moves nothing."""
    cpu = outcome.host_clock == "cpu"
    window = outcome.window
    return {
        # A wall-paced world's set-up and run mostly sleep, which does not
        # scale with the host's speed: those two stay raw.
        "setup_s": statistics.median(
            (c.raw_s + b.raw_s) if cpu else (c.s + b.s) for c, b in outcome.setups
        ),
        "events_per_s": statistics.median(
            events / (iv.cpu_s if cpu else iv.s) for events, iv in zip(window.events, window.intervals)
        ),
        "groups_per_s": outcome.groups_completed
        / sum(iv.cpu_s if cpu else iv.s for iv in outcome.life_intervals),
        "cpu_us_per_msg": statistics.median(
            iv.cpu_s * 1e6 / msgs for msgs, iv in zip(window.messages, window.intervals) if msgs
        ),
        "msgs_per_node_s": sum(window.messages) / (outcome.n_nodes * window.sim_seconds),
        "wall_s": tl.elapsed_s(calibrated=not cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def percentiles(samples) -> Dict[str, float]:
    from timing import pct

    ordered = sorted(samples)
    return {"samples": len(ordered), "p50": pct(ordered, 50), "p90": pct(ordered, 90), "p99": pct(ordered, 99)}


def per_layer(outcome, tl, tracer, probes: Dict[str, float]) -> Dict[str, float]:
    from layers import LAYERS, self_seconds

    live = outcome.host_clock == "cpu"
    window = outcome.window
    untraced, traced = outcome.setups[0], outcome.setups[-1]

    def cost(setup) -> float:
        return sum(iv.cpu_raw_s if live else iv.raw_s for iv in setup)

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out: Dict[str, float] = dict(outcome.counts)
    out.update(probes)
    out.update(
        {
            "world.construct_s": untraced[0].s,
            "world.bootstrap_s": untraced[1].s,
            "world.bootstrap_events": outcome.bootstrap_events[-1],
            "world.bootstrap_ms_per_node": untraced[1].s * 1000.0 / outcome.n_nodes,
            "world.lay_groups_s": outcome.lay_groups_raw_s,
            "world.rss_kb_per_node": rss_kb / outcome.n_nodes,
            "fuse.service.spurious_groups": outcome.spurious_groups,
            "scenarios.setup_tracks_s": outcome.setup_tracks_raw_s,
            "scenarios.aggregate_s": outcome.aggregate_raw_s,
            "host.speed_factor": tl.speed_factor(),
            "trace.overhead": cost(traced) / cost(untraced),
        }
    )

    create, notify = percentiles(outcome.create_ms), percentiles(outcome.notify_s)
    for p in ("p50", "p90", "p99"):
        out[f"fuse.service.create_{p}_ms"] = create[p]
        out[f"fuse.service.notify_{p}_s"] = notify[p]

    # What only the live backend has; a simulated workload reads 0.
    wall = sum(iv.raw_s for iv in window.intervals)
    cpu = sum(iv.cpu_raw_s for iv in window.intervals)
    counts = outcome.counts
    live_only = {
        "net.backends.livenet.retransmit_ratio": counts["net.network.retransmit_ratio"],
        "net.backends.livenet.connection_breaks": counts["net.network.connection_breaks"],
        "net.backends.livenet.msgs_per_wall_s": sum(window.messages) / wall,
        "net.backends.asynckernel.timers": counts["sim.kernel.events"],
        "net.backends.loop_busy_frac": cpu / wall,
    }
    out.update(live_only if live else dict.fromkeys(live_only, 0))

    run_wall = 0.0
    for phase, profile in tracer.profiles.items():
        seconds, calls = self_seconds(profile)
        suffix = "setup_self_s" if phase == "setup" else "self_s"
        for layer in LAYERS + ("other",):
            out[f"{layer}.{suffix}"] = seconds.get(layer, 0.0)
            if phase == "run" and layer != "other":
                out[f"{layer}.calls"] = calls.get(layer, 0)
        if phase == "run":
            run_wall = sum(seconds.values())
    # The run profile is on from the end of set-up to the end of the
    # workload: every span after bootstrap, and the marks between them.
    # A wall-paced run is compared in CPU time, its idle waits left out.
    end = "cpu_end_s" if live else "end_s"
    traced_span = max(s[end] for s in tl.spans) - max(s[end] for s in tl.spans if s["name"] == "bootstrap")
    out["trace.self_s_coverage"] = run_wall / traced_span
    return out


def manifest(argv: List[str], seed: int) -> dict:
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ("git",) + args, cwd=ROOT, capture_output=True, text=True, timeout=10, check=False
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    def version(module: str) -> str:
        try:
            return __import__(module).__version__
        except ImportError:
            return "absent"

    status = git("status", "--porcelain")
    try:
        loadavg = pathlib.Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "seed": seed,
        "argv": argv,
        "REPRO_LIVENESS_LANES": os.environ.get("REPRO_LIVENESS_LANES"),
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload(args, argv: List[str], spec: dict) -> int:
    from layers import Tracer
    from probes import run_probes
    from timing import Timeline
    from workloads import WORKLOADS, NoTracer, tally

    run_manifest = manifest(argv, args.seed)
    tl = Timeline(ORIGIN)
    tracer = Tracer() if args.trace else NoTracer()
    repeats = 2 if args.trace else SETUP_REPEATS
    begin = tl.mark()
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, args.smoke, tl, tracer, repeats)
    tl.interval(args.workload, begin, tl.mark(), parent="")

    e2e = end_to_end(outcome, tl)
    if args.trace:
        values = per_layer(outcome, tl, tracer, run_probes(args.seed, 0.2 if args.smoke else 1.0))
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"the run did not produce {missing}")

    attempted, failed = tally(outcome)
    result = {
        "correct": failed == 0 and not outcome.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        trace=args.trace,
        problems=outcome.problems,
        sim_digest=outcome.sim_digest,
        end_to_end=e2e,
        slices=[
            {"raw_s": iv.raw_s, "cpu_raw_s": iv.cpu_raw_s, "speed_factor": iv.factor,
             "events": events, "messages": msgs}
            for iv, events, msgs in zip(
                outcome.window.intervals, outcome.window.events, outcome.window.messages
            )
        ],
        counts=outcome.counts,
        speed_factor=tl.speed_factor(),
        latency={
            "create_ms": percentiles(outcome.create_ms),
            "notify_s": percentiles(outcome.notify_s),
        },
        manifest=run_manifest,
        spans=tl.spans,
    )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f" slices={len(record['slices'])} window={sum(s['raw_s'] for s in record['slices']):.2f}s"
          f" speed_factor={record['speed_factor']:.3f} sim_digest={outcome.sim_digest}")
    for name, entry in result["metrics"].items():
        print(f"{name:44s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'attempted_ops':44s} {attempted:>16d} count")
    print(f"{'failed_ops':44s} {failed:>16d} count")
    print(f"# notifications {outcome.delivered_notes}/{outcome.expected_notes}"
          f" groups live {outcome.groups_live}/{outcome.groups_attempted}"
          f" peers joined {outcome.joined}/{outcome.n_nodes} spurious groups {outcome.spurious_groups}")
    for problem in outcome.problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# All workloads: one fresh child process each, one at a time
# ----------------------------------------------------------------------
def run_all(args, spec: dict) -> int:
    status = 0
    runs = []
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in ((0, 1) if args.trace else (0,)):
                out = pathlib.Path(scratch) / f"{workload}.{trace}.json"
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--trace", str(trace), "--out", str(out),
                ]
                command += ["--smoke"] if args.smoke else []
                command += ["--seconds", str(args.seconds)] if args.seconds is not None else []
                code = subprocess.run(command, check=False).returncode
                status = status or code
                if out.exists():
                    runs.append(json.loads(out.read_text()))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"the program under test is not in this checkout: {ROOT / 'src' / 'repro'} is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:], spec)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7, help="feeds the workload generators only")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"host seconds the measured window aims at (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: run under cProfile and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="small worlds, short windows")
    parser.add_argument("--probes", action="store_true", help="run the layer probes only")
    parser.add_argument("--out", type=pathlib.Path, default=None, help="also write the full record here")
    args = parser.parse_args(argv)
    if args.probes:
        from probes import run_probes

        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in run_probes(args.seed, 0.2 if args.smoke else 1.0).items():
            print(f"{name:44s} {value:>16.6g} {units[name]}")
        return 0
    if args.workload is None:
        return run_all(args, spec)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS.get(args.workload, 1.0) if args.smoke else DEFAULT_SECONDS
    return run_workload(args, argv, spec)


if __name__ == "__main__":
    sys.exit(main())
