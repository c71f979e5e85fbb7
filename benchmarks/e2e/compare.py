"""``run.py compare A.json B.json ...``: do two sets of runs agree?

The first file is side A (the parent), all later files are side B (the
change); a file holds one run record or ``{"runs": [...]}``.  Per
workload and end-to-end metric it prints each side's median and
quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      B's median is better by more than the bound;
* ``unresolved``  the medians are within the bound but a side's own
                  spread (quartile distance over median) is wider than
                  the bound, unless every run of B beats every run of A;
* ``same``        otherwise.

It also prints a line whenever ``sim_digest`` differs between runs of
one (workload, seed, seconds), and exits non-zero on any ``worse`` or
any run with failed operations.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Dict, List, Sequence, Tuple


def load_runs(path: str) -> List[dict]:
    data = json.loads(pathlib.Path(path).read_text())
    return [r for r in data.get("runs", [data]) if not r.get("trace")]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def shown(quartile_values: Sequence[float]) -> str:
    return "/".join(f"{v:.5g}" for v in quartile_values)


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (qb[1] - qa[1]) / abs(qa[1])
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    spread = max((q[2] - q[0]) / abs(q[1]) for q in (qa, qb))
    if spread > bound:
        b_wins = min(b) > max(a) if better == "higher" else max(b) < min(a)
        return "better" if b_wins else "unresolved"
    return "same"


def main(paths: List[str], spec: dict) -> int:
    if len(paths) < 2:
        raise SystemExit("usage: run.py compare A.json B.json [B2.json ...]")
    side_a, side_b = load_runs(paths[0]), [r for p in paths[1:] for r in load_runs(p)]
    status = 0

    for run in side_a + side_b:
        if run["failed"] or not run["correct"]:
            print(f"FAILED: {run['workload']} seed={run['seed']}: failed_ops={run['failed']} {run['problems']}")
            status = 1

    digests: Dict[tuple, set] = {}
    for run in side_a + side_b:
        if run["sim_digest"] is not None:
            digests.setdefault((run["workload"], run["seed"], run["seconds"]), set()).add(run["sim_digest"])
    for (workload, seed, seconds), seen in sorted(digests.items()):
        if len(seen) > 1:
            print(f"sim_digest differs: {workload} seed={seed} seconds={seconds:g}: {sorted(seen)}")

    print(f"{'workload':16s} {'metric':15s} {'A q1/median/q3':>34s} {'B q1/median/q3':>34s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a = [r for r in side_a if r["workload"] == workload]
        runs_b = [r for r in side_b if r["workload"] == workload]
        if not runs_a or not runs_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            word = verdict(a, b, metric["better"], metric["bound"])
            status = status or (1 if word == "worse" else 0)
            print(f"{workload:16s} {name:15s} {shown(quartiles(a)):>34s} {shown(quartiles(b)):>34s}  {word}")
    return status
