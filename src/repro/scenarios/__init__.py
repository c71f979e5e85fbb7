"""Declarative scenario engine: composable fault timelines for FUSE.

The paper's central claim (abstract, §3.5) is notification delivery
under *arbitrary* failure patterns; this package is the layer that makes
new failure patterns a declaration instead of a new experiment module.
A :class:`Scenario` composes **phases** (warmup / steady-state /
measurement windows) with **event tracks** (churn schedules, partition
and intransitive fault timelines, link-loss ramps, group and SV-tree
workloads — :mod:`repro.scenarios.tracks`), runs through the shared
trial engine (:mod:`repro.scenarios.runner`), and can be written in
Python or loaded from TOML/JSON (:mod:`repro.scenarios.spec`).

Entry points:

* ``python -m repro.scenarios.run <name|spec.toml>`` — the CLI;
* ``python -m repro.scenarios.fuzz`` — coverage-guided spec fuzzing
  over the full track vocabulary (:mod:`repro.scenarios.fuzz`);
* :func:`execute` — one scenario, one seed, one measurements dict;
* :func:`run_scenario` — seed replicas through the engine (``jobs`` /
  ``seeds`` exactly as in :mod:`repro.experiments.run`);
* :data:`BUILTIN` — the named catalogue (:mod:`repro.scenarios.builtin`).

Full DSL reference: ``docs/SCENARIOS.md``.
"""

from repro.scenarios.builtin import (
    BUILTIN,
    ChurnConfig,
    CrashConfig,
    catalogue,
    fig9_scenario,
    fig10_scenario,
)
from repro.scenarios.expect import (
    ExpectError,
    Expectation,
    evaluate_expectations,
    parse_expect,
)
from repro.scenarios.runner import (
    ScenarioResult,
    apply_overrides,
    run_scenario,
    run_scenario_sweep,
)
from repro.scenarios.spec import SpecError, TRACK_KINDS, load, scenario_from_dict
from repro.scenarios.timeline import (
    MINUTE_MS,
    Phase,
    Scenario,
    ScenarioContext,
    Track,
    execute,
    execute_with_context,
)

__all__ = [
    "BUILTIN",
    "ChurnConfig",
    "CrashConfig",
    "ExpectError",
    "Expectation",
    "MINUTE_MS",
    "Phase",
    "Scenario",
    "ScenarioContext",
    "ScenarioResult",
    "SpecError",
    "TRACK_KINDS",
    "Track",
    "apply_overrides",
    "catalogue",
    "evaluate_expectations",
    "execute",
    "execute_with_context",
    "fig10_scenario",
    "fig9_scenario",
    "load",
    "parse_expect",
    "run_scenario",
    "run_scenario_sweep",
    "scenario_from_dict",
]
