"""Experiment E5/E6 — estimator standard error and MSE decomposition.

Reproduces Figures 5 and H.4 (standard error of ``IdealEst(k)`` vs
``FixHOptEst(k, Init/Data/All)`` as a function of ``k``) and Figure H.5
(decomposition of each estimator's mean squared error into bias, variance
and measurement correlation), for one or more case-study analogue tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.registry import register_study
from repro.core.benchmark import BenchmarkProcess
from repro.core.estimators import estimator_cost
from repro.core.variance import EstimatorQualityResult, EstimatorQualityStudy
from repro.data.tasks import get_task
from repro.engine import MeasurementCache, ParallelExecutor, StudyRunner
from repro.utils.rng import SeedScope
from repro.utils.tables import format_table

__all__ = ["EstimatorStudyResult", "run_estimator_study"]


@dataclass
class EstimatorStudyResult:
    """Standard-error curves and MSE decomposition per task and estimator."""

    quality: Dict[str, Dict[str, EstimatorQualityResult]] = field(default_factory=dict)
    ks: Sequence[int] = ()
    hpo_budget: int = 0

    def rows(self) -> List[dict]:
        """Uniform-API rows: the Figure 5/H.4 curves plus the H.5 decomposition.

        Rows are grouped task-major (each task's curves, then its MSE
        decomposition) so the list concatenates over the shard axis: a
        per-task shard's rows are exactly the full run's rows for that
        task, which keeps sharded merges bitwise-equal to monolithic runs.
        """
        rows: List[dict] = []
        for task_name in self.quality:
            rows += [
                {"table": "standard_error", **row}
                for row in self.standard_error_rows(task_name)
            ]
            rows += [{"table": "mse", **row} for row in self.mse_rows(task_name)]
        return rows

    def standard_error_rows(self, task: Optional[str] = None) -> List[dict]:
        """Rows of the Figure 5 / H.4 curves (optionally one task's)."""
        rows: List[dict] = []
        for task_name, estimators in self.quality.items():
            if task is not None and task_name != task:
                continue
            for estimator_name, result in estimators.items():
                curve = result.standard_error_curve(self.ks)
                for k, std in zip(self.ks, curve):
                    rows.append(
                        {
                            "task": task_name,
                            "estimator": estimator_name,
                            "k": int(k),
                            "standard_error": float(std),
                        }
                    )
        return rows

    def mse_rows(self, task: Optional[str] = None) -> List[dict]:
        """Rows of the Figure H.5 decomposition (optionally one task's)."""
        rows: List[dict] = []
        for task_name, estimators in self.quality.items():
            if task is not None and task_name != task:
                continue
            for estimator_name, result in estimators.items():
                decomposition = result.mse()
                rows.append(
                    {
                        "task": task_name,
                        "estimator": estimator_name,
                        "bias": decomposition.bias,
                        "variance": decomposition.variance,
                        "correlation": decomposition.correlation,
                        "mse": decomposition.mse,
                    }
                )
        return rows

    def cost_rows(self, k: int = 100) -> List[dict]:
        """Compute-cost comparison behind the paper's 51× claim (Section 3.3)."""
        ideal = estimator_cost(k, self.hpo_budget, ideal=True)
        biased = estimator_cost(k, self.hpo_budget, ideal=False)
        return [
            {"estimator": "IdealEst", "k": k, "model_fits": ideal},
            {"estimator": "FixHOptEst", "k": k, "model_fits": biased},
            {"estimator": "ratio", "k": k, "model_fits": ideal / biased},
        ]

    def report(self) -> str:
        """Plain-text rendition of Figures 5/H.4 and H.5."""
        parts = [
            format_table(
                self.standard_error_rows(),
                columns=["task", "estimator", "k", "standard_error"],
                title="Figure 5 / H.4 — standard error of estimators vs k",
            ),
            format_table(
                self.mse_rows(),
                columns=["task", "estimator", "bias", "variance", "correlation", "mse"],
                title="Figure H.5 — MSE decomposition of estimators",
            ),
        ]
        return "\n\n".join(parts)


@register_study(
    "estimator",
    artefact="Figures 5, H.4, H.5",
    size_params=("k_max", "n_repetitions", "hpo_budget", "dataset_size"),
    smoke_params={
        "task_names": ["entailment"],
        "k_max": 3,
        "n_repetitions": 2,
        "hpo_budget": 3,
        "dataset_size": 200,
    },
    shard_param="task_names",
    benchmark="benchmarks/bench_fig5_estimators.py",
)
def run_estimator_study(
    task_names: Sequence[str] = ("entailment",),
    *,
    k_max: int = 10,
    n_repetitions: int = 4,
    hpo_budget: int = 8,
    ks: Optional[Sequence[int]] = None,
    dataset_size: Optional[int] = None,
    n_jobs: int = 1,
    backend: str = "thread",
    cache: Optional[MeasurementCache] = None,
    executor: Optional[ParallelExecutor] = None,
    random_state=None,
) -> EstimatorStudyResult:
    """Run the estimator quality study on the requested tasks.

    Parameters
    ----------
    task_names:
        Case-study analogue tasks to include.
    k_max:
        Number of measurements per estimator realization (paper: 100).
    n_repetitions:
        Repetitions per biased-estimator variant (paper: 20).
    hpo_budget:
        HOpt trial budget (paper: 200).
    ks:
        Values of k at which the standard-error curve is tabulated.
    dataset_size:
        Optional dataset-size override for faster runs.
    n_jobs:
        Workers for the measurement engine; seeds are pre-drawn, so the
        scores are identical for any value at a fixed ``random_state``.
    backend:
        Executor backend when no ``executor`` is supplied.
    cache:
        Optional measurement cache shared by every per-task runner.
    executor:
        Pre-built executor shared across studies (overrides
        ``n_jobs``/``backend``).
    random_state:
        Seed, generator or :class:`~repro.utils.rng.SeedScope`; every
        realization's seeds are derived from its task/estimator/repetition
        scope path, so per-task shards reproduce the full run bitwise.
    """
    scope = SeedScope.from_state(random_state)
    if ks is None:
        ks = sorted(set(np.unique(np.linspace(2, k_max, num=min(5, k_max - 1), dtype=int))))
    result = EstimatorStudyResult(ks=list(ks), hpo_budget=hpo_budget)
    for task_name in task_names:
        task_scope = scope.child("task", task_name)
        task = get_task(task_name)
        dataset_kwargs = {"n_samples": dataset_size} if dataset_size else {}
        dataset = task.make_dataset(
            random_state=task_scope.child("dataset").rng(), **dataset_kwargs
        )
        pipeline = task.make_pipeline()
        process = BenchmarkProcess(dataset, pipeline, hpo_budget=hpo_budget)
        runner = StudyRunner(
            process, executor=executor, n_jobs=n_jobs, backend=backend, cache=cache
        )
        study = EstimatorQualityStudy(n_repetitions=n_repetitions, k_max=k_max)
        result.quality[task_name] = study.run(
            process, random_state=task_scope.child("quality"), runner=runner
        )
    return result
