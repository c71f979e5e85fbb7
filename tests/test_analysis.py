"""Tests for the determinism-hazard static analyzer (repro.analysis).

Three layers:

* **red/green fixtures** under ``tests/data/analysis/`` — every rule has
  a file that must light up (with pinned finding counts, so a rule that
  silently stops matching fails here) and a file that must stay silent;
* **engine behaviour** — suppressions in both placements, the
  unused/unknown-suppression audit, rule-subset semantics, the
  tests/data walk exclusion (self-hosting safety), JSON schema, CLI
  exit codes;
* **the acceptance gate** — ``src/repro`` analyzes clean with zero
  unsuppressed findings and zero unused suppressions.  This test IS the
  contract in ISSUE 10; if it fails, a determinism hazard landed.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import (
    ALL_RULES,
    DEFAULT_CONFIG,
    RULES_BY_ID,
    analyze_paths,
    module_matches,
    selected_rules,
)

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE / "data" / "analysis"
REPO = HERE.parent
SRC = REPO / "src" / "repro"


def analyze_one(path, config=DEFAULT_CONFIG):
    return analyze_paths([path], config=config, root=REPO)


# ---------------------------------------------------------------------------
# Registry


def test_rule_registry_complete():
    ids = [rule.rule_id for rule in ALL_RULES]
    assert ids == ["DH001", "DH002", "DH003", "DH004", "DH005", "DH006"]
    assert len(set(ids)) == len(ids)
    assert all(rule.title for rule in ALL_RULES)
    assert set(RULES_BY_ID) == set(ids)


def test_selected_rules_rejects_unknown_ids():
    with pytest.raises(KeyError):
        selected_rules(dataclasses.replace(DEFAULT_CONFIG, rules=("DH042",)))


def test_module_matches_semantics():
    assert module_matches("src/repro/net/backends/codec.py", ("net/backends/",))
    assert module_matches("src/repro/sim/rng.py", ("sim/rng.py",))
    assert not module_matches("src/repro/sim/rng_helpers.py", ("sim/rng.py",))
    assert not module_matches("src/repro/net/backends.py", ("net/backends/",))


# ---------------------------------------------------------------------------
# Red/green fixtures, one pair per rule (counts pinned deliberately: a
# rule that stops matching a shape regresses loudly here).

RED_CASES = [
    ("DH001", DATA / "dh001_red.py", 5),
    ("DH002", DATA / "dh002_red.py", 6),
    ("DH003", DATA / "dh003_red.py", 5),
    ("DH004", DATA / "dh004_red.py", 4),
    ("DH005", DATA / "dh005_red.py", 3),
    ("DH005", DATA / "scenarios" / "module_state_red.py", 2),
    ("DH006", DATA / "engine" / "parallel.py", 3),
]

GREEN_FILES = [
    DATA / "dh001_green.py",
    DATA / "dh002_green.py",
    DATA / "dh003_green.py",
    DATA / "dh004_green.py",
    DATA / "dh005_green.py",
    DATA / "scenarios" / "module_state_green.py",
    DATA / "engine" / "trial.py",
]


@pytest.mark.parametrize(
    "rule_id,path,expected", RED_CASES, ids=[f"{r}-{p.name}" for r, p, _ in RED_CASES]
)
def test_red_fixture_fires(rule_id, path, expected):
    result = analyze_one(path)
    assert not result.clean
    assert [f.rule for f in result.findings] == [rule_id] * expected
    # Locations are real: every finding points into the file.
    n_lines = len(path.read_text().splitlines())
    assert all(1 <= f.line <= n_lines for f in result.findings)


@pytest.mark.parametrize("path", GREEN_FILES, ids=[p.name for p in GREEN_FILES])
def test_green_fixture_stays_silent(path):
    result = analyze_one(path)
    assert result.clean, [f.render() for f in result.findings]
    assert not result.suppressed


# ---------------------------------------------------------------------------
# Suppressions and the audit


def test_suppression_both_placements():
    result = analyze_one(DATA / "suppressed.py")
    assert result.clean
    assert [f.rule for f in result.suppressed] == ["DH001", "DH001"]


def test_unused_and_unknown_suppressions_are_findings():
    result = analyze_one(DATA / "unused_suppression.py")
    rules = sorted(f.rule for f in result.findings)
    assert rules == ["unknown-suppression", "unused-suppression"]


def test_rule_subset_does_not_condemn_foreign_allows():
    # Running only DH002 over a file with DH001 allows: the allows are
    # out of scope, neither used nor unused.
    config = dataclasses.replace(DEFAULT_CONFIG, rules=("DH002",))
    result = analyze_one(DATA / "suppressed.py", config=config)
    assert result.clean
    assert not result.suppressed


def test_suppression_docstring_text_is_not_a_suppression(tmp_path):
    # The allow syntax quoted inside a string literal must not suppress
    # (nor be audited): only real comment tokens count.
    snippet = tmp_path / "doc.py"
    snippet.write_text(
        '"""Docs may quote: # repro: allow[DH001] — not a suppression."""\n'
        "import random\n\n\n"
        "def jitter():\n"
        "    return random.random()\n"
    )
    result = analyze_one(snippet)
    assert [f.rule for f in result.findings] == ["DH001"]


# ---------------------------------------------------------------------------
# Walk semantics: self-hosting safety


def test_default_walk_excludes_fixture_data():
    # tests/data/ holds deliberately-hazardous snippets; a directory
    # walk must never pick them up...
    result = analyze_paths([DATA], config=DEFAULT_CONFIG, root=REPO)
    assert result.files_analyzed == 0
    assert result.clean
    # ...while naming a file explicitly always analyzes it.
    explicit = analyze_one(DATA / "dh001_red.py")
    assert explicit.files_analyzed == 1
    assert not explicit.clean


def test_strict_dict_order_audit_mode(tmp_path):
    snippet = tmp_path / "dictorder.py"
    snippet.write_text(
        "def drain(d, sim):\n"
        "    for key in d.keys():\n"
        "        sim.schedule_soon(key)\n"
    )
    assert analyze_one(snippet).clean  # insertion-ordered: fine by default
    strict = dataclasses.replace(DEFAULT_CONFIG, strict_dict_order=True)
    result = analyze_one(snippet, config=strict)
    assert [f.rule for f in result.findings] == ["DH003"]


def test_parse_error_is_a_finding_not_a_crash(tmp_path):
    snippet = tmp_path / "broken.py"
    snippet.write_text("def broken(:\n")
    result = analyze_one(snippet)
    assert [f.rule for f in result.findings] == ["parse-error"]


# ---------------------------------------------------------------------------
# JSON schema (version 1, consumed by the CI artifact)


def test_json_schema():
    result = analyze_paths(
        [DATA / "dh001_red.py", DATA / "suppressed.py"],
        config=DEFAULT_CONFIG,
        root=REPO,
    )
    doc = result.to_json_dict()
    assert set(doc) == {
        "version",
        "files_analyzed",
        "findings",
        "suppressed",
        "summary",
        "clean",
    }
    assert doc["version"] == 1
    assert doc["files_analyzed"] == 2
    assert doc["clean"] is False
    assert set(doc["summary"]) == {"by_rule", "findings", "suppressed"}
    assert doc["summary"]["by_rule"] == {"DH001": 5}
    assert doc["summary"]["suppressed"] == 2
    for finding in [*doc["findings"], *doc["suppressed"]]:
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert isinstance(finding["line"], int) and finding["line"] >= 1
        assert finding["path"].startswith("tests/data/analysis/")
    json.dumps(doc)  # round-trippable


# ---------------------------------------------------------------------------
# CLI contract


def run_cli(*args, cwd=REPO):
    env_src = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )


def test_cli_exit_codes_and_json(tmp_path):
    red = DATA / "dh001_red.py"
    proc = run_cli(str(red), "--format=json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["summary"]["by_rule"] == {"DH001": 5}

    proc = run_cli(str(DATA / "dh001_green.py"))
    assert proc.returncode == 0

    proc = run_cli(str(red), "--rules", "DH042")
    assert proc.returncode == 2

    proc = run_cli("no/such/path.py")
    assert proc.returncode == 2


def test_cli_out_writes_report_even_on_failure(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(str(DATA / "dh001_red.py"), "--out", str(out))
    assert proc.returncode == 1
    doc = json.loads(out.read_text())
    assert doc["clean"] is False and doc["summary"]["findings"] == 5


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in ALL_RULES:
        assert rule.rule_id in proc.stdout


# ---------------------------------------------------------------------------
# The acceptance gate: the real tree is clean


def test_src_runs_clean():
    result = analyze_paths([SRC], config=DEFAULT_CONFIG, root=REPO)
    offenders = [f.render() for f in result.findings]
    assert not offenders, "determinism hazards in src/:\n" + "\n".join(offenders)
    assert result.files_analyzed > 90  # the walk really covered the tree
    # The deliberate, justified cases are suppressed — not invisible.
    assert len(result.suppressed) >= 9
    assert {f.rule for f in result.suppressed} == {"DH003", "DH004"}
