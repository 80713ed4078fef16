import tracemalloc

import pytest

from tensorbound import SweepConfig, cli, run_sweep, sweep
from tensorbound.bounds import DOM_TOL
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
        direct = [run_trial(config, [i])[0] for i in range(10)]
        reversed_order = [run_trial(config, [i])[0] for i in reversed(range(10))]
        assert direct == sorted(reversed_order, key=lambda t: t.index)


class TestStackedTrials:
    CONFIG = SweepConfig(trials=30, seed=13, max_m=6, max_dim=5)

    def test_sequence_equals_one_call_per_index(self):
        single = [run_trial(self.CONFIG, [i])[0] for i in range(30)]
        assert run_trial(self.CONFIG, range(30)) == tuple(single)
        assert run_trial(self.CONFIG, list(reversed(range(30)))) == tuple(reversed(single))

    def test_first_trial_above_the_cap_raises_before_any_operator(self, monkeypatch):
        config = SweepConfig(trials=10, seed=5, dim_cap=9)
        monkeypatch.setattr(sweep, "random_operator", None)  # any call would fail
        with pytest.raises(ValueError, match=r"4\*3 = 12 exceeds the cap 9"):
            run_trial(config, range(10))

    def test_dim_cap_sweep_keeps_its_error_and_exit_code(self, capsys):
        assert cli.main(["--dim-cap", "9", "sweep", "--trials", "600", "--seed", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: tensor product dimension 4*3 = 12 exceeds the cap 9; "
            "raise dim_cap to force assembly\n"
        )

    def test_peak_memory_is_that_of_one_chunk(self, monkeypatch):
        # working memory (tracemalloc peak above what the result keeps) of a
        # 25-chunk sweep stays that of one chunk; one 200-trial call reads 15x
        monkeypatch.setattr(sweep, "SWEEP_CHUNK", 8)
        config = SweepConfig(trials=200, seed=1, max_m=2, max_dim=2)
        run_trial(config, range(8))  # warm caches outside the measurement

        def working_memory(call):
            tracemalloc.start()
            try:
                _ = call()
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - current

        one_chunk = working_memory(lambda: run_trial(config, range(8)))
        assert working_memory(lambda: run_sweep(config)) < 3 * one_chunk


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

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"seed": -1}, "seed must be an unsigned 64-bit integer"),
            ({"seed": 2**64}, "seed must be an unsigned 64-bit integer"),
            ({"max_m": 1}, "max_m must be at least 2"),
            ({"max_dim": 0}, "max_dim must be positive"),
        ],
    )
    def test_rejects_out_of_range_fields(self, changes, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(**{"trials": 1, "seed": 0, **changes})

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


@pytest.mark.parametrize("seed", [42, 7, 2024])
def test_complete_bound_never_beats_the_sparse_bound(seed):
    # Summing the weighted domination inequality over the non-edges gives
    # non-edge mass <= (C(G) - 1) * edge mass, so complete <= sparse. Each
    # of at most m^2 non-edges may pass with DOM_TOL * max|c_a c_b| to
    # spare, and sparse >= sum c_i^2 >= 2 max|c_a c_b|.
    trials = run_sweep(SweepConfig(trials=500, seed=seed)).trials
    dominated = [t for t in trials if t.sparse_bound is not None]
    assert len(dominated) > 100
    assert any(t.sparse_bound > t.complete_bound for t in dominated)
    for t in dominated:
        assert t.complete_bound <= t.sparse_bound * (1 + DOM_TOL * t.m ** 2), t
