"""Smoke self-test of the end-to-end benchmark (small worlds, short
windows): every metric BENCHMARK.json names is printed with its unit,
nothing fails, a missed notification is caught, and profiling a run
changes nothing that is simulated."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(completed process, record) of the untraced pass over all four
    workloads and of one traced run.  The two start together: the traced
    run is simulated, so sharing the host changes nothing it reports that
    is checked here."""
    tmp = tmp_path_factory.mktemp("e2e")
    started = []
    for name, args in (("all", []), ("traced", ["--workload", "steady_4k", "--trace", "1"])):
        command = [sys.executable, str(HERE / "run.py"), *args, "--smoke", "--seed", "7", "--out", str(tmp / name)]
        started.append((name, subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)))
    done = {}
    for name, process in started:
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stdout + stderr
        done[name] = (stdout, json.loads((tmp / name).read_text()))
    return done


@pytest.fixture(scope="module")
def smoke(runs):
    stdout, record = runs["all"]
    return stdout, {r["workload"]: r for r in record["runs"]}


@pytest.fixture(scope="module")
def traced(runs):
    return runs["traced"]


def printed(stdout, name, unit):
    return re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}$", stdout, re.M)


def test_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)


def test_every_workload_prints_every_end_to_end_metric(smoke):
    stdout, records = smoke
    assert list(records) == [w["name"] for w in SPEC["workloads"]]
    for record in records.values():
        assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
        for metric in SPEC["end_to_end"]:
            entry = record["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0
            assert printed(stdout, metric["name"], metric["unit"])


def test_traced_run_prints_every_per_layer_metric(traced):
    stdout, _record = traced
    last = json.loads(stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed(stdout, metric["name"], metric["unit"])
    assert 0.95 <= last["metrics"]["trace.self_s_coverage"]["value"] <= 1.05


def test_profiling_changes_nothing_simulated(smoke, traced):
    untraced, profiled = smoke[1]["steady_4k"], traced[1]
    assert untraced["sim_digest"] == profiled["sim_digest"]
    assert untraced["counts"] == profiled["counts"]
    assert untraced["end_to_end"]["msgs_per_node_s"] == profiled["end_to_end"]["msgs_per_node_s"]
    for name in ("fuse.service.create_p50_ms", "fuse.service.notify_p90_s", "world.bootstrap_events"):
        assert profiled["metrics"][name]["value"] > 0


def test_a_missed_notification_fails_the_run():
    import dataclasses

    from workloads import Outcome, Slices, audit_members, tally

    class Ledger:
        def __init__(self, notes):
            self.notes = notes

        def notification_times(self, fuse_id):
            return self.notes[fuse_id]

    groups, since = [("g1", (1, 2, 3)), ("g2", (4, 5))], {"g1": 1000.0, "g2": 2000.0}
    notes = {"g1": {1: 1500.0, 2: 1600.0, 3: 1700.0}, "g2": {4: 2500.0, 5: 2600.0}}
    assert audit_members(Ledger(notes), groups, since) == (5, 5, [0.5, 0.6, 0.7, 0.5, 0.6], 2)
    del notes["g1"][3]
    expected, delivered, _, complete = audit_members(Ledger(notes), groups, since)
    assert (expected, delivered, complete) == (5, 4, 1)

    outcome = Outcome(
        n_nodes=5, setups=[], bootstrap_events=[], joined=5, window=Slices(), host_clock="wall",
        life_intervals=[], lay_groups_raw_s=0.0, groups_attempted=2, groups_live=2, groups_completed=2,
        create_ms=[], notify_s=[], expected_notes=5, delivered_notes=5, spurious_groups=0, counts={},
        problems=[], sim_digest=None,
    )
    assert tally(outcome) == (12, 0)
    assert tally(dataclasses.replace(outcome, delivered_notes=delivered)) == (12, 1)
