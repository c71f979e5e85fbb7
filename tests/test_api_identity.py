"""Byte-identical outputs across the group-API redesign.

The first-class group API (``repro.fuse.api``) rewired every consumer of
the callback-style group API — apps, six experiment modules, the
scenario tracks, ``FuseWorld.create_group_sync`` — onto group handles
and the world ledger.  These tests prove the rewiring is
observationally invisible: every figure experiment and every built-in
scenario still produces byte-identical JSON against fixtures generated
by the pre-refactor tree (``tests/make_api_fixtures.py``).

A mismatch here means the refactor changed event timing, RNG draw order,
or accounting — regenerate the fixtures only for a *deliberate* behavior
change, and say so in the commit.
"""

import pytest

from repro.scenarios import BUILTIN
from tests.make_api_fixtures import EXPERIMENTS, OUT_DIR, experiment_json, scenario_json


def _fixture(name: str) -> str:
    path = OUT_DIR / f"{name}.json"
    assert path.is_file(), f"missing fixture {path}; run tests/make_api_fixtures.py"
    return path.read_text()


class TestExperimentIdentity:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_experiment_matches_fixture(self, name):
        assert experiment_json(name) == _fixture(name)


class TestScenarioIdentity:
    @pytest.mark.parametrize("name", sorted(BUILTIN))
    def test_builtin_scenario_matches_fixture(self, name):
        assert scenario_json(name) == _fixture(f"scenario_{name}")
