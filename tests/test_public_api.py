"""Tests for the top-level public API and an end-to-end workflow."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro import (
    BenchmarkProcess,
    FixHOptEstimator,
    IdealEstimator,
    SeedBundle,
    compare_pipelines,
    get_task,
    list_tasks,
    minimum_sample_size,
    probability_of_outperforming_test,
)


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_task_registry_exposed(self):
        assert "entailment" in list_tasks()

    def test_cli_and_registry_start_without_scipy(self):
        # Every CLI call, worker and pool child pays for what `import
        # repro` loads; scipy is imported only where it is called, and
        # the scheduler only by the commands that run it.
        script = textwrap.dedent(
            """
            import sys

            import repro.__main__
            from repro.api import get_study, list_studies, smoke_suite

            for name in list_studies():
                get_study(name)
            smoke_suite().validate()
            print(sorted(
                m for m in sys.modules
                if m.split(".")[0] in ("scipy", "sqlite3", "_sqlite3")
                or m == "repro.sched" or m.startswith("repro.sched.")
            ))
            """
        )
        source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=source_root),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestEndToEndWorkflow:
    """The full recommended workflow of the paper on a tiny analogue task."""

    @pytest.fixture(scope="class")
    def setup(self):
        task = get_task("entailment")
        dataset = task.make_dataset(random_state=0, n_samples=250)
        strong = BenchmarkProcess(
            dataset, task.make_pipeline(hidden_sizes=(32,), n_epochs=8), hpo_budget=3
        )
        weak = BenchmarkProcess(
            dataset, task.make_pipeline(hidden_sizes=(1,), n_epochs=1), hpo_budget=3
        )
        return strong, weak

    def test_estimators_and_comparison(self, setup):
        strong, weak = setup
        # Step 1: estimate performance with the affordable biased estimator.
        estimator = FixHOptEstimator(randomize="all")
        estimate = estimator.estimate(strong, 6, random_state=0)
        assert 0.0 <= estimate.mean <= 1.0
        # Step 2: decide sample size, run the paired comparison.
        k = min(10, minimum_sample_size(0.75))
        report, scores = compare_pipelines(strong, weak, k=k, random_state=0)
        assert report.n_pairs == k
        # The strong pipeline should not lose to the weak one.
        assert report.p_a_gt_b >= 0.5

    def test_ideal_estimator_unbiased_reference(self, setup):
        strong, _ = setup
        ideal = IdealEstimator().estimate(strong, 2, random_state=1)
        biased = FixHOptEstimator("all").estimate(strong, 2, random_state=1)
        assert abs(ideal.mean - biased.mean) < 0.5

    def test_significance_workflow_direct(self, rng):
        a = rng.normal(0.8, 0.02, size=29)
        b = rng.normal(0.7, 0.02, size=29)
        report = probability_of_outperforming_test(a, b, random_state=0)
        assert report.meaningful
