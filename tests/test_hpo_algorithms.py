"""Tests for random search, grid search and noisy grid search."""

import numpy as np
import pytest

from repro.hpo.base import HPOResult, Trial
from repro.hpo.grid import GridSearch, NoisyGridSearch
from repro.hpo.random_search import RandomSearch
from repro.hpo.space import LogUniformDimension, SearchSpace, UniformDimension


def _quadratic_space():
    return SearchSpace({"x": UniformDimension(-1.0, 1.0), "y": UniformDimension(-1.0, 1.0)})


def _quadratic(config):
    return (config["x"] - 0.3) ** 2 + (config["y"] + 0.2) ** 2


class TestHPOResult:
    def test_best_trial_selection(self):
        result = HPOResult(
            trials=[
                Trial({"x": 0.0}, 2.0, 0),
                Trial({"x": 1.0}, 0.5, 1),
                Trial({"x": 2.0}, 1.0, 2),
            ]
        )
        assert result.best_value == 0.5
        assert result.best_config == {"x": 1.0}

    def test_optimization_curve_monotone(self):
        result = HPOResult(
            trials=[Trial({}, v, i) for i, v in enumerate([3.0, 2.0, 2.5, 1.0])]
        )
        np.testing.assert_array_equal(result.optimization_curve(), [3.0, 2.0, 2.0, 1.0])

    def test_empty_result_raises(self):
        with pytest.raises(ValueError):
            HPOResult().best_trial

    def test_nan_trial_never_beats_a_number(self):
        nan = float("nan")
        result = HPOResult([Trial({"a": 1}, nan, 0), Trial({"a": 2}, 0.1, 1)])
        assert result.best_trial.index == 1
        result = HPOResult(
            [Trial({}, 0.4, 0), Trial({}, nan, 1), Trial({}, 0.2, 2), Trial({}, nan, 3)]
        )
        assert result.best_trial.index == 2

    def test_ties_go_to_the_earliest_trial(self):
        nan = float("nan")
        assert HPOResult([Trial({}, nan, 0), Trial({}, nan, 1)]).best_trial.index == 0
        result = HPOResult([Trial({}, 0.3, 0), Trial({}, 0.1, 1), Trial({}, 0.1, 2)])
        assert result.best_trial.index == 1

    def test_optimization_curve_skips_nan(self):
        nan = float("nan")
        result = HPOResult(
            trials=[Trial({}, v, i) for i, v in enumerate([nan, 3.0, nan, 1.0, nan])]
        )
        np.testing.assert_array_equal(
            result.optimization_curve(), [nan, 3.0, 3.0, 1.0, 1.0]
        )

    def test_diverged_first_trial_does_not_win_optimize(self):
        calls = []

        def objective(config):
            calls.append(config)
            return float("nan") if len(calls) == 1 else _quadratic(config)

        result = RandomSearch().optimize(
            objective, _quadratic_space(), budget=5, random_state=0
        )
        assert result.best_trial.index != 0
        assert np.isfinite(result.best_value)


class TestRandomSearch:
    def test_runs_budget_trials(self):
        result = RandomSearch().optimize(_quadratic, _quadratic_space(), budget=25, random_state=0)
        assert result.n_trials == 25

    def test_finds_reasonable_optimum(self):
        result = RandomSearch().optimize(_quadratic, _quadratic_space(), budget=200, random_state=0)
        assert result.best_value < 0.05

    def test_seed_reproducibility(self):
        a = RandomSearch().optimize(_quadratic, _quadratic_space(), budget=10, random_state=1)
        b = RandomSearch().optimize(_quadratic, _quadratic_space(), budget=10, random_state=1)
        assert a.best_config == b.best_config

    def test_different_seeds_differ(self):
        a = RandomSearch().optimize(_quadratic, _quadratic_space(), budget=10, random_state=1)
        b = RandomSearch().optimize(_quadratic, _quadratic_space(), budget=10, random_state=2)
        assert a.best_config != b.best_config

    def test_widened_space_still_valid_for_loguniform(self):
        space = SearchSpace({"lr": LogUniformDimension(1e-3, 1e-1)})
        search = RandomSearch(widen_fraction=0.5, grid_points=5)
        result = search.optimize(lambda c: c["lr"], space, budget=20, random_state=0)
        assert all(t.config["lr"] > 0 for t in result.trials)


class TestGridSearch:
    def test_covers_full_grid(self):
        search = GridSearch(points_per_dimension=3)
        result = search.optimize(_quadratic, _quadratic_space(), budget=9, random_state=0)
        xs = sorted({t.config["x"] for t in result.trials})
        assert xs == pytest.approx([-1.0, 0.0, 1.0])

    def test_deterministic_across_seeds(self):
        a = GridSearch().optimize(_quadratic, _quadratic_space(), budget=9, random_state=0)
        b = GridSearch().optimize(_quadratic, _quadratic_space(), budget=9, random_state=99)
        assert a.best_config == b.best_config

    def test_budget_derives_points(self):
        result = GridSearch().optimize(_quadratic, _quadratic_space(), budget=16, random_state=0)
        assert result.n_trials == 16


class TestNoisyGridSearch:
    def test_different_seeds_give_different_grids(self):
        a = NoisyGridSearch().optimize(_quadratic, _quadratic_space(), budget=9, random_state=0)
        b = NoisyGridSearch().optimize(_quadratic, _quadratic_space(), budget=9, random_state=1)
        assert a.trials[0].config != b.trials[0].config

    def test_grid_shift_bounded_by_half_step(self):
        space = SearchSpace({"x": UniformDimension(0.0, 1.0)})
        search = NoisyGridSearch(points_per_dimension=5)
        result = search.optimize(lambda c: 0.0, space, budget=5, random_state=3)
        nominal = np.linspace(0.0, 1.0, 5)
        observed = np.array(sorted(t.config["x"] for t in result.trials))
        step = 0.25
        assert np.all(np.abs(observed - nominal) <= step / 2 + 1e-9)

    def test_still_optimizes(self):
        result = NoisyGridSearch().optimize(
            _quadratic, _quadratic_space(), budget=25, random_state=0
        )
        assert result.best_value < 0.3
