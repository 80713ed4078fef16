import pytest

from tensorbound import SweepConfig, run_sweep
from tensorbound.sweep import run_trial, trial_seed


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        config = SweepConfig(trials=40, seed=7)
        first = run_sweep(config)
        second = run_sweep(config)
        assert first.summary() == second.summary()
        assert first.trials == second.trials

    def test_trial_seeds_depend_on_index_only(self):
        assert trial_seed(42, 3) == trial_seed(42, 3)
        assert trial_seed(42, 3) != trial_seed(42, 4)
        assert trial_seed(42, 3) != trial_seed(43, 3)

    def test_trials_independent_of_order(self):
        config = SweepConfig(trials=10, seed=99)
        direct = [run_trial(config, i) for i in range(10)]
        reversed_order = [run_trial(config, i) for i in reversed(range(10))]
        assert direct == sorted(reversed_order, key=lambda t: t.index)


class TestDominance:
    def test_no_violations_random_graph_mode(self):
        result = run_sweep(SweepConfig(trials=150, seed=42))
        assert result.passed
        assert result.summary()["violations"] == []
        assert result.summary()["max_complete_ratio"] <= 1.0 + 1e-8

    def test_no_violations_complete_graph_mode(self):
        result = run_sweep(SweepConfig(trials=100, seed=5, graph_mode="complete"))
        assert result.passed
        # complete graphs have no non-edges, so domination always holds
        assert all(t.domination_satisfied for t in result.trials)
        for t in result.trials:
            assert t.sparse_bound == pytest.approx(t.complete_bound, rel=1e-12)

    def test_involution_ensemble_has_near_sharp_instances(self):
        result = run_sweep(
            SweepConfig(trials=120, seed=11, kinds=("unitary_involution",))
        )
        assert result.passed
        assert result.summary()["max_complete_ratio"] > 0.9

    def test_contraction_only_ensemble(self):
        result = run_sweep(SweepConfig(trials=60, seed=3, kinds=("contraction",)))
        assert result.passed


class TestConfigValidation:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="kinds"):
            SweepConfig(trials=1, seed=0, kinds=("haar",))

    def test_rejects_bad_graph_mode(self):
        with pytest.raises(ValueError, match="graph_mode"):
            SweepConfig(trials=1, seed=0, graph_mode="tree")

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            SweepConfig(trials=0, seed=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-300])
    def test_rejects_non_finite_or_negative_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            SweepConfig(trials=1, seed=0, tol=tol)

    def test_accepts_zero_tol(self):
        assert SweepConfig(trials=1, seed=0, tol=0.0).tol == 0.0

    @pytest.mark.parametrize("dim_cap", [0, -5])
    def test_rejects_dim_cap_below_one(self, dim_cap):
        with pytest.raises(ValueError, match="dim_cap must be at least 1"):
            SweepConfig(trials=1, seed=0, dim_cap=dim_cap)

    def test_accepts_dim_cap_one(self):
        assert SweepConfig(trials=1, seed=0, dim_cap=1).dim_cap == 1

    def test_summary_reports_rng_scheme(self):
        result = run_sweep(SweepConfig(trials=5, seed=1))
        assert result.summary()["rng"] == "pcg64+box-muller"
