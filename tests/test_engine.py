"""Tests for the shared trial engine: sweeps, seed derivation, the
parallel executor's determinism guarantee, and result aggregation/JSON."""

import pytest

from repro.engine import (
    ResultSet,
    Sweep,
    TrialResult,
    TrialSpec,
    derive_seed,
    run_trial,
    run_trials,
)
from repro.experiments import creation_latency, steady_state


def _square_trial(spec):
    """Synthetic trial: pure function of the spec (serial-executor tests)."""
    x = spec["x"]
    return {"square": x * x, "samples": [float(i) for i in range(x)], "seed": spec.seed}


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed("fig7", 2, (("size", 8),)) == derive_seed(
            "fig7", 2, (("size", 8),)
        )

    def test_distinct_across_components(self):
        seeds = {
            derive_seed("fig7", 2, (("size", s),)) for s in (2, 4, 8, 16, 32)
        }
        assert len(seeds) == 5
        assert derive_seed("fig7", 2) != derive_seed("fig8", 2)
        assert derive_seed("fig7", 2) != derive_seed("fig7", 3)

    def test_non_negative_63_bit(self):
        for s in range(50):
            value = derive_seed("x", s)
            assert 0 <= value < 2**63


class TestSweep:
    def test_empty_grid_is_one_trial_per_seed(self):
        sweep = Sweep(seeds=(1, 2, 3))
        specs = sweep.expand("exp")
        assert len(specs) == 3
        assert [s.base_seed for s in specs] == [1, 2, 3]
        assert all(s.params == {} for s in specs)

    def test_grid_expansion_order(self):
        sweep = Sweep(grid={"a": (1, 2), "b": ("x", "y")}, seeds=(0,))
        points = [s.params for s in sweep.expand("exp")]
        assert points == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_indices_are_stable_ordinals(self):
        sweep = Sweep(grid={"a": (1, 2)}, seeds=(7, 8))
        specs = sweep.expand("exp")
        assert [s.index for s in specs] == [0, 1, 2, 3]
        assert sweep.n_trials == 4

    def test_seed_depends_only_on_own_point(self):
        """Adding grid values or seeds must not move existing trials'
        derived seeds."""
        small = {(s.base_seed, tuple(sorted(s.params.items()))): s.seed
                 for s in Sweep(grid={"a": (1,)}, seeds=(5,)).expand("exp")}
        big = {(s.base_seed, tuple(sorted(s.params.items()))): s.seed
               for s in Sweep(grid={"a": (1, 2, 3)}, seeds=(5, 6)).expand("exp")}
        for key, seed in small.items():
            assert big[key] == seed

    def test_context_attached(self):
        marker = object()
        specs = Sweep(seeds=(1,)).expand("exp", context=marker)
        assert specs[0].context is marker


class TestSerialExecutor:
    def test_results_in_spec_order(self):
        specs = Sweep(grid={"x": (3, 1, 2)}, seeds=(0,)).expand("exp")
        results = run_trials(_square_trial, specs, jobs=1)
        assert [r.measurements["square"] for r in results] == [9, 1, 4]
        assert [r.spec.index for r in results] == [0, 1, 2]

    def test_run_trial_times_and_validates(self):
        spec = Sweep(grid={"x": (2,)}).expand("exp")[0]
        result = run_trial(_square_trial, spec)
        assert result.wall_seconds >= 0.0
        with pytest.raises(TypeError):
            run_trial(lambda s: [1, 2], spec)


class TestParallelDeterminism:
    def test_parallel_matches_serial_single_world(self):
        config = creation_latency.CreationConfig(
            n_nodes=20, group_sizes=(2, 4), groups_per_size=2
        )
        serial = creation_latency.run(config, jobs=1)
        parallel = creation_latency.run(config, jobs=2)
        assert serial.result_set.to_json(include_timing=False) == parallel.result_set.to_json(
            include_timing=False
        )
        # And the aggregated figure tables agree byte for byte.
        assert serial.format_table() == parallel.format_table()

    def test_parallel_matches_serial_with_seed_replication(self):
        config = steady_state.SteadyStateConfig(
            n_nodes=15, n_groups=3, group_size=3, window_minutes=2.0
        )
        serial = steady_state.run(config, jobs=1, seeds=[5, 6])
        parallel = steady_state.run(config, jobs=4, seeds=[5, 6])
        assert serial.result_set.to_json(include_timing=False) == parallel.result_set.to_json(
            include_timing=False
        )

    def test_jobs_capped_by_trial_count(self):
        specs = Sweep(grid={"x": (1,)}).expand("exp")
        # jobs > trials must not hang or error; degenerates to serial.
        results = run_trials(_square_trial, specs, jobs=8)
        assert len(results) == 1


class TestResultSet:
    def _make(self):
        specs = Sweep(grid={"x": (1, 2, 3)}, seeds=(0, 1)).expand("exp")
        return ResultSet([run_trial(_square_trial, s) for s in specs])

    def test_selection(self):
        rs = self._make()
        assert len(rs) == 6
        assert len(rs.where(x=2)) == 2
        assert rs.axis("x") == [1, 2, 3]
        assert set(rs.group_by("x")) == {1, 2, 3}

    def test_scalars_and_samples(self):
        rs = self._make()
        assert rs.total("square") == 2 * (1 + 4 + 9)
        assert rs.mean("square") == pytest.approx(14 / 3)
        # list measurements flatten: x=3 contributes [0,1,2] per seed
        assert sorted(rs.where(x=3).samples("samples")) == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]

    def test_percentile_and_ci(self):
        rs = self._make()
        # samples are [1, 1, 4, 4, 9, 9]
        assert rs.percentile("square", 50) == pytest.approx(4.0)

    def test_cdf_and_histogram(self):
        rs = self._make()
        cdf = rs.cdf("square")
        assert cdf.value_at_fraction(1.0) == 9
        hist = rs.histogram("samples")
        assert len(hist) == 2 * (0 + 1 + 2 + 3)

    def test_empty_measurement_raises(self):
        rs = self._make()
        with pytest.raises(ValueError):
            rs.mean("missing")

    def test_generic_format_table(self):
        rs = self._make()
        text = rs.format_table(title="demo")
        assert "demo" in text
        assert "x" in text.split("\n")[1]

    def test_json_round_trip(self):
        rs = self._make()
        restored = ResultSet.from_json(rs.to_json())
        assert restored.to_json() == rs.to_json()
        assert restored.experiment == rs.experiment
        assert [t.spec.seed for t in restored] == [t.spec.seed for t in rs]
        assert restored.total("square") == rs.total("square")

    def test_json_timing_toggle(self):
        rs = self._make()
        with_timing = rs.to_json_dict(include_timing=True)
        without = rs.to_json_dict(include_timing=False)
        assert "wall_seconds" in with_timing["trials"][0]
        assert "wall_seconds" not in without["trials"][0]

    def test_total_wall_seconds(self):
        rs = self._make()
        assert rs.total_wall_seconds == pytest.approx(
            sum(t.wall_seconds for t in rs), rel=1e-9
        )


class TestTrialResultJson:
    def test_round_trip_preserves_spec(self):
        spec = TrialSpec(experiment="e", index=3, seed=42, base_seed=7, params={"a": 1})
        result = TrialResult(spec=spec, measurements={"m": [1.0, 2.0]}, wall_seconds=0.5)
        restored = TrialResult.from_json_dict(result.to_json_dict())
        assert restored.spec.experiment == "e"
        assert restored.spec.index == 3
        assert restored.spec.seed == 42
        assert restored.spec.base_seed == 7
        assert restored.spec.params == {"a": 1}
        assert restored.measurements == {"m": [1.0, 2.0]}
        assert restored.wall_seconds == 0.5
        # context is deliberately not serialized
        assert restored.spec.context is None
