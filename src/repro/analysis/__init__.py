"""Determinism-hazard static analyzer for the repro tree.

Every contract this reproduction makes — byte-identical event streams
across lanes on/off, serial vs ``--jobs``, sim vs wire — is enforced
*dynamically* by golden fixtures.  This package is the static half: an
AST lint suite that catches the hazard classes
(stray RNG, wall-clock reads, set-order escapes, ``id()``/``hash()``
keys, shared mutable state, post-fork global mutation) at review time,
before a fixture ever has the chance to go red.

CLI::

    python -m repro.analysis src/ [--format text|json] [--rules DH003]

Suppress a deliberate hazard on its line (or the pure-comment line
directly above) with a justification::

    for t in set(targets):  # repro: allow[DH003] int sets are seed-stable

Unused suppressions are themselves findings, so allows cannot outlive
the hazard they excuse.  See docs/ANALYSIS.md for the rule table.
"""

from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig, module_matches
from repro.analysis.engine import (
    AnalysisResult,
    FileReport,
    Finding,
    analyze_file,
    analyze_paths,
    iter_python_files,
)
from repro.analysis.rules import ALL_RULES, RULES_BY_ID, selected_rules

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "AnalysisConfig",
    "AnalysisResult",
    "DEFAULT_CONFIG",
    "FileReport",
    "Finding",
    "analyze_file",
    "analyze_paths",
    "iter_python_files",
    "module_matches",
    "selected_rules",
]
