"""Experiment E11 — normality of performance distributions (Figure G.3).

The per-source score samples collected by the variance study are submitted
to Shapiro-Wilk normality tests, per task and per source, plus the
"altogether" condition where every learning-procedure source is randomized
at once.  The paper finds the distributions close to normal in almost every
cell, justifying the normal models used by the simulation framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.registry import register_study
from repro.core.benchmark import BenchmarkProcess
from repro.core.estimators import FixHOptEstimator
from repro.data.tasks import get_task
from repro.engine import MeasurementCache, ParallelExecutor, StudyRunner
from repro.experiments.variance_study import run_variance_study
from repro.stats.normality import NormalityResult, normality_report
from repro.utils.rng import SeedScope
from repro.utils.tables import format_table

__all__ = ["NormalityStudyResult", "run_normality_study"]


@dataclass
class NormalityStudyResult:
    """Shapiro-Wilk results per (task, source of variation)."""

    reports: Dict[str, Dict[str, NormalityResult]] = field(default_factory=dict)

    def rows(self) -> List[dict]:
        """One row per (task, source) cell of Figure G.3."""
        rows: List[dict] = []
        for task_name, sources in self.reports.items():
            for source, report in sources.items():
                rows.append(
                    {
                        "task": task_name,
                        "source": source,
                        "shapiro_pvalue": report.pvalue,
                        "n": report.n,
                        "mean": report.mean,
                        "std": report.std,
                    }
                )
        return rows

    def fraction_consistent_with_normal(self, alpha: float = 0.05) -> float:
        """Fraction of non-degenerate cells passing the Shapiro-Wilk test.

        Cells with zero variance (a source that the pipeline does not
        actually use, e.g. dropout when the dropout rate is zero) carry no
        distributional information and are excluded, mirroring the paper
        which only reports the sources present in each case study.
        """
        cells = [
            report
            for sources in self.reports.values()
            for report in sources.values()
            if report.std > 0
        ]
        if not cells:
            return 0.0
        return sum(r.is_consistent_with_normal(alpha) for r in cells) / len(cells)

    def report(self) -> str:
        """Plain-text rendition of Figure G.3."""
        return format_table(
            self.rows(),
            columns=["task", "source", "shapiro_pvalue", "n", "mean", "std"],
            title="Figure G.3 — normality of performance distributions",
        )


@register_study(
    "normality",
    artefact="Figure G.3",
    size_params=("n_seeds", "dataset_size"),
    smoke_params={"task_names": ["entailment"], "n_seeds": 5, "dataset_size": 200},
    shard_param="task_names",
    benchmark="benchmarks/bench_figG3_normality.py",
)
def run_normality_study(
    task_names: Sequence[str] = ("entailment",),
    *,
    n_seeds: int = 15,
    include_altogether: bool = True,
    dataset_size: Optional[int] = None,
    n_jobs: int = 1,
    backend: str = "thread",
    cache: Optional[MeasurementCache] = None,
    executor: Optional[ParallelExecutor] = None,
    random_state=None,
) -> NormalityStudyResult:
    """Collect per-source score samples and test them for normality.

    Parameters
    ----------
    task_names:
        Case-study analogue tasks to include.
    n_seeds:
        Seed draws per source (paper: 200; the Shapiro-Wilk test needs at
        least a handful to be informative).
    include_altogether:
        Also test the distribution with all learning-procedure sources
        randomized at once (last row of Figure G.3), obtained with
        ``FixHOptEst(k, All)``.
    dataset_size:
        Optional dataset-size override for faster runs.
    n_jobs:
        Workers for the measurement engine, threaded through the inner
        variance study and the "altogether" estimator; seeds are
        pre-drawn, so results are identical for any value.
    backend:
        Executor backend when no ``executor`` is supplied.
    cache:
        Optional measurement cache shared across studies.
    executor:
        Pre-built executor shared across studies (overrides
        ``n_jobs``/``backend``).
    random_state:
        Seed, generator or :class:`~repro.utils.rng.SeedScope`.  The scope
        is shared with the inner variance study, so per-task seeds (and the
        cached measurements behind them) are identical whether the study
        runs whole or as per-task shards.
    """
    scope = SeedScope.from_state(random_state)
    variance_result = run_variance_study(
        task_names,
        n_seeds=n_seeds,
        include_hpo=False,
        dataset_size=dataset_size,
        n_jobs=n_jobs,
        backend=backend,
        cache=cache,
        executor=executor,
        random_state=scope,
    )
    result = NormalityStudyResult()
    for task_name, decomposition in variance_result.decompositions.items():
        result.reports[task_name] = {
            source: normality_report(scores)
            for source, scores in decomposition.scores.items()
        }
        if include_altogether:
            # Same task scope as the inner variance study: the dataset is
            # shared, so a warm cache serves both protocols.
            task_scope = scope.child("task", task_name)
            task = get_task(task_name)
            dataset_kwargs = {"n_samples": dataset_size} if dataset_size else {}
            dataset = task.make_dataset(
                random_state=task_scope.child("dataset").rng(), **dataset_kwargs
            )
            process = BenchmarkProcess(dataset, task.make_pipeline(), hpo_budget=5)
            runner = StudyRunner(
                process, executor=executor, n_jobs=n_jobs, backend=backend, cache=cache
            )
            estimator = FixHOptEstimator(randomize="all")
            estimate = estimator.estimate(
                process,
                n_seeds,
                random_state=task_scope.child("altogether"),
                hparams=process.pipeline.default_hparams(),
                runner=runner,
            )
            result.reports[task_name]["altogether"] = normality_report(estimate.scores)
    return result
