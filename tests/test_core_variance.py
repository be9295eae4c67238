"""Tests for the variance decomposition and estimator-quality studies."""

import numpy as np
import pytest

from repro.core.benchmark import BenchmarkProcess
from repro.core.comparison import AverageComparison
from repro.core.estimators import FixHOptEstimator, IdealEstimator
from repro.core.pairing import (
    compare_pipelines,
    paired_measurements,
    paired_seed_bundles,
)
from repro.core.variance import (
    EstimatorQualityStudy,
    VarianceDecomposition,
    estimator_standard_error_curve,
    hpo_variance_study,
    variance_decomposition_study,
)
from repro.core.sources import VarianceSource
from repro.hpo.random_search import RandomSearch
from repro.simulation.detection import (
    detection_rate,
    detection_rate_curve,
    robustness_to_sample_size,
    robustness_to_threshold,
)
from repro.simulation.performance_model import SimulatedTask
from repro.utils.rng import SeedScope


class TestVarianceDecompositionStudy:
    def test_sources_present(self, hard_process):
        decomposition = variance_decomposition_study(
            hard_process,
            sources=(VarianceSource.DATA, VarianceSource.INIT),
            n_seeds=4,
            random_state=0,
        )
        assert set(decomposition.stds) == {"data", "init", "numerical"}
        assert all(std >= 0 for std in decomposition.stds.values())

    def test_scores_shape(self, hard_process):
        decomposition = variance_decomposition_study(
            hard_process, sources=(VarianceSource.DATA,), n_seeds=5, random_state=0
        )
        assert decomposition.scores["data"].shape == (5,)

    def test_data_variance_positive(self, hard_process):
        decomposition = variance_decomposition_study(
            hard_process, sources=(VarianceSource.DATA,), n_seeds=6, random_state=0
        )
        assert decomposition.stds["data"] > 0

    def test_relative_to_reference(self):
        decomposition = VarianceDecomposition(
            task_name="t", stds={"data": 0.02, "init": 0.01}
        )
        relative = decomposition.relative_to("data")
        assert relative["init"] == pytest.approx(0.5)

    def test_relative_to_missing_reference(self):
        with pytest.raises(KeyError):
            VarianceDecomposition(task_name="t", stds={"init": 0.1}).relative_to("data")

    def test_rows_contain_relative_column(self, hard_process):
        decomposition = variance_decomposition_study(
            hard_process, sources=(VarianceSource.DATA,), n_seeds=3, random_state=0
        )
        rows = decomposition.as_rows()
        assert all("relative_to_data" in row for row in rows)

    def test_source_scores_do_not_depend_on_other_sources(self, hard_process):
        """A direct call seeds each source from its own scope path, so
        studying ``data`` as well leaves the ``init`` scores unchanged."""
        both = variance_decomposition_study(
            hard_process,
            sources=(VarianceSource.DATA, VarianceSource.INIT),
            n_seeds=4,
            include_numerical_noise=False,
            random_state=0,
        )
        alone = variance_decomposition_study(
            hard_process,
            sources=(VarianceSource.INIT,),
            n_seeds=4,
            include_numerical_noise=False,
            random_state=0,
        )
        np.testing.assert_array_equal(both.scores["init"], alone.scores["init"])


class TestHpoVarianceStudy:
    def test_returns_scores_per_algorithm(self, hard_process):
        results = hpo_variance_study(
            hard_process, {"random_search": RandomSearch()}, n_repetitions=3, random_state=0
        )
        assert set(results) == {"random_search"}
        assert results["random_search"].shape == (3,)

    def test_restores_original_algorithm(self, hard_process):
        original = hard_process.hpo_algorithm
        hpo_variance_study(
            hard_process, {"random_search": RandomSearch()}, n_repetitions=2, random_state=0
        )
        assert hard_process.hpo_algorithm is original


class TestEstimatorStandardErrorCurve:
    def test_iid_rows_match_sigma_over_sqrt_k(self, rng):
        # For i.i.d. measurements the standard error should follow sigma/sqrt(k).
        matrix = rng.normal(0.0, 1.0, size=(400, 50))
        curve = estimator_standard_error_curve(matrix, [1, 4, 16, 49])
        expected = 1.0 / np.sqrt(np.array([1, 4, 16, 49]))
        np.testing.assert_allclose(curve, expected, rtol=0.25)

    def test_correlated_rows_plateau(self, rng):
        shared = rng.normal(size=(200, 1))
        matrix = shared + 0.1 * rng.normal(size=(200, 50))
        curve = estimator_standard_error_curve(matrix, [1, 10, 50])
        # Standard error barely improves because measurements are correlated.
        assert curve[-1] > 0.5 * curve[0]

    def test_k_larger_than_matrix_rejected(self, rng):
        with pytest.raises(ValueError):
            estimator_standard_error_curve(rng.normal(size=(3, 5)), [6])

    def test_requires_multiple_repetitions(self, rng):
        with pytest.raises(ValueError):
            estimator_standard_error_curve(rng.normal(size=(1, 5)), [2])

    def test_cumsum_fast_path_matches_naive_recomputation(self, rng):
        # Regression guard for the O(n·k_max²) -> O(n·k_max) rewrite: the
        # single cumulative-sum pass must agree with re-averaging each
        # prefix from scratch.
        matrix = rng.normal(0.3, 0.05, size=(37, 23))
        ks = [1, 2, 3, 7, 11, 23]
        naive = np.array(
            [float(np.std(matrix[:, :k].mean(axis=1), ddof=1)) for k in ks]
        )
        np.testing.assert_allclose(
            estimator_standard_error_curve(matrix, ks), naive, rtol=1e-12
        )

    def test_empty_ks_gives_empty_curve(self, rng):
        assert estimator_standard_error_curve(rng.normal(size=(3, 5)), []).size == 0

    def test_unsorted_and_repeated_ks_preserved(self, rng):
        matrix = rng.normal(size=(10, 8))
        curve = estimator_standard_error_curve(matrix, [5, 2, 5])
        assert curve.shape == (3,)
        assert curve[0] == curve[2]


class TestEstimatorQualityStudy:
    def test_produces_all_variants(self, hard_process):
        study = EstimatorQualityStudy(subsets=("init", "all"), n_repetitions=2, k_max=3)
        results = study.run(hard_process, random_state=0)
        assert set(results) == {"IdealEst", "FixHOptEst(init)", "FixHOptEst(all)"}
        for result in results.values():
            assert result.score_matrix.shape == (2, 3)

    def test_mse_decomposition_available(self, hard_process):
        study = EstimatorQualityStudy(subsets=("init",), n_repetitions=2, k_max=3)
        results = study.run(hard_process, random_state=0)
        decomposition = results["FixHOptEst(init)"].mse()
        assert np.isfinite(decomposition.mse)


# ----------------------------------------------------------------------
# One seeding path: every seeded entry point derives through SeedScope
# ----------------------------------------------------------------------
_TOY_TASK = SimulatedTask(
    name="toy", mean=0.7, sigma=0.02, biased_bias_std=0.01, biased_measurement_std=0.018
)

#: Each seeded entry point at a tiny size, as ``(process_a, process_b,
#: random_state) -> comparable result``.
SEEDED_ENTRY_POINTS = {
    "variance_decomposition_study": lambda a, b, seed: variance_decomposition_study(
        a, sources=(VarianceSource.INIT,), n_seeds=2, random_state=seed
    ).scores,
    "hpo_variance_study": lambda a, b, seed: hpo_variance_study(
        a, {"random_search": RandomSearch()}, n_repetitions=2, random_state=seed
    ),
    "EstimatorQualityStudy.run": lambda a, b, seed: {
        name: result.score_matrix
        for name, result in EstimatorQualityStudy(
            subsets=("init",), n_repetitions=2, k_max=2
        )
        .run(a, random_state=seed)
        .items()
    },
    "IdealEstimator.estimate": lambda a, b, seed: IdealEstimator()
    .estimate(a, 2, random_state=seed)
    .scores,
    "FixHOptEstimator.estimate": lambda a, b, seed: FixHOptEstimator("data")
    .estimate(a, 2, random_state=seed)
    .scores,
    "paired_seed_bundles": lambda a, b, seed: paired_seed_bundles(
        3, random_state=seed
    ),
    "paired_measurements": lambda a, b, seed: paired_measurements(
        a, b, 2, random_state=seed
    ).differences(),
    "compare_pipelines": lambda a, b, seed: compare_pipelines(
        a, b, k=3, random_state=seed
    )[0],
    "detection_rate": lambda a, b, seed: detection_rate(
        AverageComparison(), _TOY_TASK, 0.7, k=5, n_simulations=4, random_state=seed
    ),
    "detection_rate_curve": lambda a, b, seed: detection_rate_curve(
        AverageComparison(),
        _TOY_TASK,
        (0.5, 0.8),
        k=5,
        n_simulations=4,
        random_state=seed,
    ).rates,
    "robustness_to_sample_size": lambda a, b, seed: robustness_to_sample_size(
        {"average": AverageComparison()},
        _TOY_TASK,
        sample_sizes=(3, 5),
        n_simulations=4,
        random_state=seed,
    ),
    "robustness_to_threshold": lambda a, b, seed: robustness_to_threshold(
        lambda gamma: AverageComparison(delta=gamma / 100),
        _TOY_TASK,
        thresholds=(0.6, 0.9),
        k=5,
        n_simulations=4,
        random_state=seed,
    ),
}


class TestOneSeedingPath:
    @pytest.mark.parametrize("entry_point", sorted(SEEDED_ENTRY_POINTS))
    def test_int_seed_is_its_root_scope(
        self, entry_point, hard_process, hard_dataset, linear_classifier
    ):
        """An int seed and the root scope it names give the same result:
        direct calls and the drivers share one derivation."""
        other = BenchmarkProcess(hard_dataset, linear_classifier, hpo_budget=3)
        call = SEEDED_ENTRY_POINTS[entry_point]
        np.testing.assert_equal(
            call(hard_process, other, SeedScope.from_state(3)),
            call(hard_process, other, 3),
        )
