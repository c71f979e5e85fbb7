"""Tests for the declarative scenario engine.

Covers the timeline model and spec loading, the built-in catalogue, the
composition of FaultInjector semantics with scenario tracks (heal
ordering, crash-during-partition), and the engine contract: the same
scenario spec + seed yields identical metrics serially and under
``--jobs 2``.
"""

import json

import pytest

from repro.net import FaultInjector
from repro.scenarios import (
    BUILTIN,
    Phase,
    Scenario,
    Track,
    catalogue,
    execute,
    run_scenario,
    scenario_from_dict,
)
from repro.scenarios.run import main as run_main
from repro.scenarios.spec import SpecError
from repro.scenarios.tracks import (
    CrashRecoverWave,
    DisconnectWave,
    GroupWorkload,
    LinkLossRamp,
    Partition,
    PoissonChurn,
    resolve_nodes,
)


class TestSelectors:
    def test_forms(self):
        ids = list(range(10, 20))
        assert resolve_nodes("all", ids) == ids
        assert resolve_nodes("first:3", ids) == [10, 11, 12]
        assert resolve_nodes("last:2", ids) == [18, 19]
        assert resolve_nodes("slice:2:5", ids) == [12, 13, 14]
        assert resolve_nodes([11, 15], ids) == [11, 15]

    def test_bad_selector_rejected(self):
        with pytest.raises(ValueError):
            resolve_nodes("half", [1, 2])
        with pytest.raises(ValueError):
            resolve_nodes("first:x", [1, 2])


class TestModelValidation:
    def test_duplicate_phase_names_rejected(self):
        with pytest.raises(ValueError):
            Scenario("s", 10, (Phase("a", 1.0), Phase("a", 2.0)))

    def test_empty_phases_rejected(self):
        with pytest.raises(ValueError):
            Scenario("s", 10, ())

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Phase("a", -1.0)

    def test_group_workload_validation(self):
        with pytest.raises(ValueError):
            GroupWorkload(n_groups=1, group_size=1)
        with pytest.raises(ValueError):
            GroupWorkload(n_groups=1, group_size=3, rate_per_minute=2.0)

    def test_partition_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Partition(phase="p", fractions=(0.5, 0.4))


class TestFaultComposition:
    """FaultInjector semantics under the orderings scenario tracks create."""

    def test_crash_during_partition_survives_heal(self):
        faults = FaultInjector()
        faults.partition([[1, 2], [3, 4]])
        faults.crash(1)
        assert not faults.can_communicate(1, 2)  # crashed beats same-side
        faults.heal_partition()
        assert not faults.can_communicate(1, 2)  # heal does not resurrect
        faults.recover(1)
        assert faults.can_communicate(1, 2)
        assert faults.can_communicate(1, 3)

    def test_blocked_pair_independent_of_partition_lifecycle(self):
        faults = FaultInjector()
        faults.block_pair(1, 3)
        faults.partition([[1, 3], [2]])
        assert not faults.can_communicate(1, 3)  # blocked even same-side
        faults.heal_partition()
        assert not faults.can_communicate(1, 3)  # heal leaves the pair cut
        faults.unblock_pair(1, 3)
        assert faults.can_communicate(1, 3)

    def test_disconnect_during_partition_then_heal(self):
        faults = FaultInjector()
        faults.partition([[1, 2], [3]])
        faults.disconnect(2)
        faults.heal_partition()
        assert not faults.can_communicate(2, 3)
        faults.reconnect(2)
        assert faults.can_communicate(2, 3)


class _HealProbe(Track):
    """Asserts the partition healed before the named phase starts."""

    def __init__(self, phase_name):
        self.phase_name = phase_name

    def on_phase_start(self, ctx, phase):
        if phase.name == self.phase_name:
            faults = ctx.world.net.faults
            first, last = ctx.world.node_ids[0], ctx.world.node_ids[-1]
            ctx.extra["healed_at_phase_start"] = int(
                faults.can_communicate(first, last)
            )


class TestScenarioFaultTracks:
    def _partition_scenario(self, heal_after):
        return Scenario(
            name="t-partition",
            n_nodes=14,
            seed=3,
            phases=(
                Phase("warmup", 1.5),
                Phase("partition", 4.0),
                Phase("healed", 1.0),
            ),
            tracks=(
                GroupWorkload(n_groups=4, group_size=4),
                Partition(phase="partition", fractions=(0.5, 0.5), heal_after_minutes=heal_after),
                _HealProbe("healed"),
            ),
        )

    def test_partition_heal_mid_phase(self):
        m = execute(self._partition_scenario(heal_after=2.0))
        assert m["healed_at_phase_start"] == 1
        # Spanning groups were declared doomed; surviving same-side groups
        # must not be notified.
        assert m["groups_affected"] == m["partition_spanning_groups"]
        assert m["spurious_groups"] == 0
        assert m["groups_notified"] <= m["groups_affected"]

    def test_partition_heals_at_phase_end_by_default(self):
        m = execute(self._partition_scenario(heal_after=None))
        assert m["healed_at_phase_start"] == 1

    def test_crash_wave_during_partition(self):
        """Crash-during-partition: both fault kinds compose; the crashed
        node stays dead after the heal and its groups are notified."""
        class _DisconnectProbe(Track):
            def on_phase_start(self, ctx, phase):
                if phase.name == "after":
                    faults = ctx.world.net.faults
                    ctx.extra["still_disconnected"] = sum(
                        1 for n in ctx.world.node_ids if faults.is_disconnected(n)
                    )

        scenario = Scenario(
            name="t-crash-in-partition",
            n_nodes=14,
            seed=5,
            phases=(Phase("warmup", 1.5), Phase("trouble", 5.0), Phase("after", 1.0)),
            tracks=(
                GroupWorkload(n_groups=5, group_size=3),
                Partition(phase="trouble", fractions=(0.5, 0.5), heal_after_minutes=2.0),
                DisconnectWave(count=2, phase="trouble"),
                _DisconnectProbe(),
            ),
        )
        m = execute(scenario)
        assert m["still_disconnected"] == 2  # heal does not reconnect victims
        assert m["groups_affected"] >= m["partition_spanning_groups"]
        assert m["final_alive"] == 14  # disconnect != crash: processes live

    def test_healed_disconnect_rejoins_overlay(self):
        """Regression: healing a disconnect must rejoin evicted nodes to
        the overlay, not leave reachable-but-invisible zombies."""

        class _MembershipProbe(Track):
            def on_phase_end(self, ctx, phase):
                ctx.extra[f"members_after_{phase.name}"] = ctx.world.overlay.member_count

        scenario = Scenario(
            name="t-heal-rejoin",
            n_nodes=14,
            seed=7,
            phases=(Phase("warmup", 1.0), Phase("outage", 5.0), Phase("recovered", 6.0)),
            tracks=(
                DisconnectWave(count=3, phase="outage", reconnect_after_minutes=4.0),
                _MembershipProbe(),
            ),
        )
        m = execute(scenario)
        assert m["members_after_outage"] <= 14  # eviction may have happened
        assert m["members_after_recovered"] == 14  # heal rejoined everyone

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            GroupWorkload(n_groups=2, group_size=3, rate_per_minute=0.0, phase="p")
        from repro.scenarios.tracks import SvtreeTraffic

        with pytest.raises(ValueError):
            SvtreeTraffic(n_topics=1, subscribers_per_topic=2, phase="p", publish_per_minute=0)

    def test_disconnect_wave_contiguous_block(self):
        scenario = Scenario(
            name="t-rack",
            n_nodes=12,
            seed=2,
            phases=(Phase("warmup", 1.0), Phase("fail", 4.0)),
            tracks=(
                GroupWorkload(n_groups=4, group_size=3),
                DisconnectWave(count=3, phase="fail", contiguous=True),
            ),
        )
        m = execute(scenario)
        assert m["notifications_delivered"] == m["notifications_expected"]

    def test_link_loss_ramp_applies_and_restores(self):
        class _LossProbe(Track):
            def on_phase_end(self, ctx, phase):
                link = next(iter(ctx.world.topology.links()))
                ctx.extra[f"loss_after_{phase.name}"] = link.loss

        scenario = Scenario(
            name="t-loss",
            n_nodes=8,
            seed=1,
            phases=(Phase("lossy", 2.0), Phase("clean", 0.5)),
            tracks=(
                # Probe first: phase-end hooks run in track order, and the
                # ramp's restore must not race ahead of the reading.
                _LossProbe(),
                LinkLossRamp(phase="lossy", end_loss=0.016, steps=2, restore_loss=0.0),
            ),
        )
        m = execute(scenario)
        assert m["loss_after_lossy"] == pytest.approx(0.016)
        assert m["loss_after_clean"] == 0.0
        assert m["final_link_loss"] == 0.016


class TestChurnTracks:
    def test_poisson_churn_holds_population_near_half(self):
        scenario = Scenario(
            name="t-churn",
            n_nodes=20,
            seed=4,
            phases=(Phase("churn", 20.0),),
            tracks=(
                PoissonChurn(
                    nodes="last:10",
                    half_life_minutes=4.0,
                    phase="churn",
                    pre_kill_alternate=True,
                ),
            ),
        )
        m = execute(scenario)
        # 10 stable + ~5 of 10 churners alive; generous band.
        assert 11 <= m["final_alive"] <= 19

    def test_crash_recover_wave_rejoins_everyone(self):
        scenario = Scenario(
            name="t-wave",
            n_nodes=12,
            seed=6,
            phases=(Phase("down", 1.0), Phase("flash", 6.0)),
            tracks=(
                CrashRecoverWave(count=4, nodes="last:4", recover_phase="flash", spacing_ms=50.0),
            ),
        )
        m = execute(scenario)
        assert m["final_alive"] == 12
        assert m["wave_size"] == 4

    def test_rate_based_group_creation(self):
        scenario = Scenario(
            name="t-rate",
            n_nodes=12,
            seed=8,
            phases=(Phase("create", 4.0), Phase("drain", 1.0)),
            tracks=(
                GroupWorkload(n_groups=3, group_size=3, rate_per_minute=1.0, phase="create"),
            ),
        )
        m = execute(scenario)
        assert m["groups_created"] + m["groups_failed"] == 3


class TestDeterminism:
    def test_execute_is_pure(self):
        scenario = BUILTIN["partition-heal"](True)
        assert execute(scenario, seed=123) == execute(scenario, seed=123)

    def test_serial_matches_jobs2(self):
        """Same scenario spec + seeds: identical metrics serial vs --jobs 2."""
        scenario = BUILTIN["correlated-rack-failure"](True)
        serial = run_scenario(scenario, jobs=1, seeds=[1, 2])
        parallel = run_scenario(scenario, jobs=2, seeds=[1, 2])
        assert serial.result_set.to_json(include_timing=False) == parallel.result_set.to_json(
            include_timing=False
        )
        assert serial.format_table() == parallel.format_table()

    def test_tracks_hold_no_per_run_state(self):
        """Reusing one Scenario object across seeds must not leak state
        between runs (tracks keep per-run state on the context)."""
        scenario = BUILTIN["flash-churn"](True)
        first = execute(scenario, seed=9)
        second = execute(scenario, seed=9)
        assert first == second


class TestCli:
    def test_jobs_below_one_reports_the_serial_run(self, capsys):
        """``--jobs 0`` runs serially; the table footer and the --json
        payload both report the job count used, 1."""
        assert run_main(["steady", "--quick", "--jobs", "0"]) == 0
        assert ", jobs=1, 1 trials]" in capsys.readouterr().out
        assert run_main(["steady", "--quick", "--jobs", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["jobs"] == 1


class TestBuiltinCatalogue:
    def test_at_least_six_builtins(self):
        assert len(BUILTIN) >= 6

    def test_factories_produce_valid_scenarios(self):
        for name, factory in BUILTIN.items():
            for quick in (False, True):
                scenario = factory(quick)
                assert scenario.n_nodes > 0
                assert scenario.phases
                assert scenario.description or name.startswith("paper-")

    def test_catalogue_rows(self):
        rows = catalogue()
        assert len(rows) == len(BUILTIN)
        assert all(desc for _name, desc in rows)


SPEC_DICT = {
    "scenario": {"name": "spec-test", "n_nodes": 12, "seed": 21},
    "phase": [
        {"name": "warmup", "minutes": 1.0},
        {"name": "fail", "minutes": 3.0, "measure": True},
    ],
    "track": [
        {"kind": "groups", "n_groups": 3, "group_size": 3},
        {"kind": "disconnect-wave", "count": 2, "phase": "fail"},
    ],
}


class TestSpecLoading:
    def test_from_dict(self):
        scenario = scenario_from_dict(SPEC_DICT)
        assert scenario.name == "spec-test"
        assert [p.name for p in scenario.phases] == ["warmup", "fail"]
        assert len(scenario.tracks) == 2

    def test_json_file_round_trip(self, tmp_path):
        from repro.scenarios import load

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC_DICT))
        scenario = load(path)
        m = execute(scenario)
        assert m["groups_affected"] >= 1
        assert m["notifications_delivered"] == m["notifications_expected"]

    def test_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")
        from repro.scenarios import load

        path = tmp_path / "spec.toml"
        path.write_text(
            """
[scenario]
name = "toml-test"
n_nodes = 10
seed = 2

[[phase]]
name = "warmup"
minutes = 1.0

[[phase]]
name = "split"
minutes = 3.0

[[track]]
kind = "groups"
n_groups = 2
group_size = 3

[[track]]
kind = "partition"
phase = "split"
fractions = [0.5, 0.5]
heal_after_minutes = 1.0
"""
        )
        scenario = load(path)
        assert scenario.name == "toml-test"
        assert scenario.tracks[1].fractions == (0.5, 0.5)
        # Spec-loaded and dict-loaded scenarios run like Python-built ones.
        m = execute(scenario)
        assert m["groups_created"] == 2

    def test_spec_determinism_matches_python(self):
        """The same timeline expressed as a spec and as Python yields
        identical metrics for the same seed."""
        python_scenario = Scenario(
            name="spec-test",
            n_nodes=12,
            seed=21,
            phases=(Phase("warmup", 1.0), Phase("fail", 3.0, measure=True)),
            tracks=(
                GroupWorkload(n_groups=3, group_size=3),
                DisconnectWave(count=2, phase="fail"),
            ),
        )
        assert execute(scenario_from_dict(SPEC_DICT)) == execute(python_scenario)

    def test_errors(self):
        with pytest.raises(SpecError):
            scenario_from_dict({})
        with pytest.raises(SpecError):
            scenario_from_dict({"scenario": {"name": "x", "n_nodes": 5}})  # no phases
        bad_kind = json.loads(json.dumps(SPEC_DICT))
        bad_kind["track"][0]["kind"] = "nope"
        with pytest.raises(SpecError, match="unknown track kind"):
            scenario_from_dict(bad_kind)
        bad_field = json.loads(json.dumps(SPEC_DICT))
        bad_field["track"][0]["n_gruops"] = 3
        with pytest.raises(SpecError, match="no field"):
            scenario_from_dict(bad_field)


class TestExperimentDelegation:
    """churn.py / crash_notification.py are thin wrappers over scenarios."""

    def test_crash_notification_runs_through_scenarios(self):
        from repro.experiments import crash_notification as cn

        config = cn.CrashConfig(n_nodes=20, n_groups=6, n_disconnected=2, observe_minutes=6.0)
        result = cn.run(config)
        assert result.groups_created == 6
        assert result.notifications_delivered == result.notifications_expected
        assert "Fig 9" in result.format_table()

    def test_churn_runs_through_scenarios(self):
        from repro.experiments import churn

        config = churn.ChurnConfig(
            n_stable=10, n_churning=10, n_groups=3, group_size=4, window_minutes=3.0
        )
        result = churn.run(config)
        assert result.groups_created == 3
        assert result.false_positives == 0
        assert result.stable_msgs_per_sec > 0
        assert "Fig 10" in result.format_table()

    def test_sweep_shapes_unchanged(self):
        """The engine-facing sweep decomposition (and thus derived seeds)
        survived the delegation refactor: checked on tiny runs' result sets."""
        from repro.engine import derive_seed
        from repro.experiments import churn, crash_notification

        config = churn.ChurnConfig(
            n_stable=6, n_churning=6, n_groups=2, group_size=3, window_minutes=1.0
        )
        trials = churn.run(config).result_set.trials
        assert len(trials) == 3
        assert trials[0].spec.params == {"scenario": "stable"}
        assert trials[0].spec.seed == derive_seed("fig10", 6, [("scenario", "stable")])
        config = crash_notification.CrashConfig(
            n_nodes=10, n_groups=2, group_size=3, n_disconnected=1, observe_minutes=1.0
        )
        assert len(crash_notification.run(config, seeds=[1, 2]).result_set) == 2
