"""Repo-tuned configuration for the determinism-hazard analyzer.

Every rule that needs to know "where is this allowed" or "what counts as
a sink" reads it from one :class:`AnalysisConfig` instance instead of
hard-coding paths, so the whole sanctioned-module story lives here and is
shared with the tier-1 wrapper tests (``tests/test_time_purity.py``
imports :data:`DEFAULT_CONFIG` rather than keeping its own list).

Path patterns are matched by *posix segment suffix*:

* a pattern ending in ``/`` (``net/backends/``) matches any file whose
  path contains that directory run (``src/repro/net/backends/codec.py``);
* any other pattern (``sim/rng.py``) matches a file whose path *ends*
  with that suffix.

This makes the config independent of where the tree is mounted and lets
test fixtures opt into a rule's scoped behaviour simply by living under a
matching directory name (``tests/data/analysis/scenarios/…``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


def module_matches(path_posix: str, patterns: Tuple[str, ...]) -> bool:
    """True when ``path_posix`` matches any pattern (see module doc)."""
    padded = "/" + path_posix
    for pattern in patterns:
        if not pattern:
            return True
        if pattern.endswith("/"):
            if "/" + pattern in padded or path_posix.startswith(pattern):
                return True
        elif padded.endswith("/" + pattern):
            return True
    return False


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs for all rules; defaults are tuned to this repository."""

    #: DH001: the only modules allowed to construct/own raw RNGs.  The
    #: named-stream provider is the one sanctioned home (plus the fuzzer,
    #: which seeds every ``random.Random`` it makes — seeded construction
    #: is allowed everywhere anyway, so the list stays minimal).
    rng_provider_modules: Tuple[str, ...] = ("sim/rng.py",)

    #: DH002: the only package allowed to read the wall clock or system
    #: entropy — the live backend, by design.  Shared with
    #: tests/test_time_purity.py (which used to keep its own copy).
    wallclock_modules: Tuple[str, ...] = ("net/backends/",)

    #: DH003: call names whose arguments/ordering are part of the
    #: deterministic event stream.  A set-ordered loop that reaches one
    #: of these leaks hash order into the replay.
    order_sink_names: Tuple[str, ...] = ("send", "notified", "append", "extend")
    order_sink_prefixes: Tuple[str, ...] = ("schedule_", "call_", "record_")

    #: DH003: also treat plain dict iteration as hazardous.  Off by
    #: default: CPython dicts are insertion-ordered (3.7+), so a dict
    #: built by a deterministic run iterates deterministically; the
    #: hazard class is *hash-ordered* containers, i.e. sets.  Flip on
    #: for an audit sweep of dict-order assumptions.
    strict_dict_order: bool = False

    #: DH005: modules whose instances are reused across serial replicas
    #: (PR 3's scenario-track contract) — module-level mutable state
    #: there bleeds between replicas.
    track_modules: Tuple[str, ...] = ("scenarios/",)

    #: DH006: modules containing fork/worker entry paths.  Globals
    #: mutated after fork diverge between parent and children, so the
    #: serial fallback no longer replays the parallel run.
    worker_modules: Tuple[str, ...] = ("engine/parallel.py", "engine/trial.py")

    #: Directory runs excluded from *walks* (explicit file arguments
    #: bypass this).  ``tests/data/`` holds deliberately-hazardous red
    #: fixtures — they must never fail the clean-run gate.
    exclude_dirs: Tuple[str, ...] = ("tests/data/", "__pycache__/", ".git/")

    #: Rule ids to run; () means all registered rules.
    rules: Tuple[str, ...] = field(default=())

    def is_excluded(self, path_posix: str) -> bool:
        return module_matches(path_posix, self.exclude_dirs)


DEFAULT_CONFIG = AnalysisConfig()
