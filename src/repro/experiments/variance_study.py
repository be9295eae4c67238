"""Experiment E1 — per-source variance across case studies (Figure 1).

For each case-study analogue task, hyperparameters are fixed to the
pipeline defaults and every learning-procedure source of variance is
randomized in isolation; the HOpt algorithms are then each run several
times with only their seed varied.  The report gives, per task and per
source, the standard deviation of the test metric and its ratio to the
data-bootstrap standard deviation — the quantity plotted in Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.registry import register_study
from repro.core.benchmark import BenchmarkProcess
from repro.core.variance import (
    VarianceDecomposition,
    hpo_variance_study,
    variance_decomposition_study,
)
from repro.data.tasks import get_task
from repro.engine import MeasurementCache, ParallelExecutor, StudyRunner
from repro.hpo.bayesopt import BayesianOptimization
from repro.hpo.grid import NoisyGridSearch
from repro.hpo.random_search import RandomSearch
from repro.utils.rng import SeedScope
from repro.utils.tables import format_table

__all__ = ["VarianceStudyResult", "run_variance_study"]


@dataclass
class VarianceStudyResult:
    """Results of the Figure 1 experiment for a set of tasks."""

    decompositions: Dict[str, VarianceDecomposition] = field(default_factory=dict)
    hpo_stds: Dict[str, Dict[str, float]] = field(default_factory=dict)
    hpo_scores: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)

    def rows(self) -> List[dict]:
        """One row per (task, source), matching the bars of Figure 1."""
        rows: List[dict] = []
        for task_name, decomposition in self.decompositions.items():
            data_std = decomposition.stds.get("data", float("nan"))
            for source, std in decomposition.stds.items():
                rows.append(
                    {
                        "task": task_name,
                        "source": source,
                        "std": std,
                        "relative_to_data_bootstrap": std / data_std if data_std else float("nan"),
                    }
                )
            for algorithm, std in self.hpo_stds.get(task_name, {}).items():
                rows.append(
                    {
                        "task": task_name,
                        "source": f"hopt/{algorithm}",
                        "std": std,
                        "relative_to_data_bootstrap": std / data_std if data_std else float("nan"),
                    }
                )
        return rows

    def report(self) -> str:
        """Plain-text rendition of the Figure 1 table."""
        return format_table(
            self.rows(),
            columns=["task", "source", "std", "relative_to_data_bootstrap"],
            title="Figure 1 — variance of the test metric per source of variation",
        )


@register_study(
    "variance",
    artefact="Figure 1",
    size_params=("n_seeds", "n_hpo_repetitions", "hpo_budget", "dataset_size"),
    smoke_params={
        "task_names": ["entailment"],
        "n_seeds": 4,
        "n_hpo_repetitions": 2,
        "hpo_budget": 3,
        "dataset_size": 200,
    },
    shard_param="task_names",
    benchmark="benchmarks/bench_fig1_variance_sources.py",
)
def run_variance_study(
    task_names: Sequence[str] = ("entailment", "sentiment"),
    *,
    n_seeds: int = 15,
    n_hpo_repetitions: int = 5,
    hpo_budget: int = 10,
    include_hpo: bool = True,
    dataset_size: Optional[int] = None,
    n_jobs: int = 1,
    backend: str = "thread",
    cache: Optional[MeasurementCache] = None,
    executor: Optional[ParallelExecutor] = None,
    random_state=None,
) -> VarianceStudyResult:
    """Run the per-source variance study on the requested tasks.

    Parameters
    ----------
    task_names:
        Case-study analogue tasks to include.
    n_seeds:
        Seed draws per learning-procedure source (paper: 200).
    n_hpo_repetitions:
        Independent HOpt runs per HOpt algorithm (paper: 20).
    hpo_budget:
        HOpt trial budget (paper: 200).
    include_hpo:
        Skip the (more expensive) HOpt part when false.
    dataset_size:
        Optional override of the dataset size for faster runs.
    n_jobs:
        Workers for the measurement engine; results are identical for any
        value at a fixed ``random_state`` (seeds are pre-drawn).
    backend:
        Executor backend (``"serial"``, ``"thread"``, ``"process"``) when
        no ``executor`` is supplied.
    cache:
        Optional :class:`~repro.engine.cache.MeasurementCache` shared by
        every per-task runner, so repeated studies replay known
        measurements.
    executor:
        Pre-built :class:`~repro.engine.executor.ParallelExecutor` shared
        across studies (overrides ``n_jobs``/``backend``).
    random_state:
        Seed, generator or :class:`~repro.utils.rng.SeedScope`.  Every
        seed in the study is derived from the scope path of its task /
        source / repetition, never from a shared rng stream, so a run
        restricted to one task (e.g. a ``shard_members`` queue task)
        produces bitwise-identical measurements to the full run.
    """
    scope = SeedScope.from_state(random_state)
    result = VarianceStudyResult()
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
        result.decompositions[task_name] = variance_decomposition_study(
            process,
            n_seeds=n_seeds,
            random_state=task_scope.child("variance"),
            runner=runner,
        )
        if include_hpo:
            algorithms = {
                "random_search": RandomSearch(),
                "noisy_grid_search": NoisyGridSearch(),
                "bayesopt": BayesianOptimization(n_initial_points=3, n_candidates=64),
            }
            scores = hpo_variance_study(
                process,
                algorithms,
                n_repetitions=n_hpo_repetitions,
                random_state=task_scope.child("hpo"),
                runner=runner,
            )
            result.hpo_scores[task_name] = scores
            result.hpo_stds[task_name] = {
                name: float(np.std(values, ddof=1)) for name, values in scores.items()
            }
    return result
