"""repro — reproduction of "Accounting for Variance in Machine Learning Benchmarks".

The library reproduces Bouthillier et al. (MLSys 2021) end to end:

* :mod:`repro.core` — the paper's contribution: the benchmark-process
  model, the ideal and biased estimators of the expected empirical risk
  (Algorithms 1 and 2), variance decomposition, decision criteria
  (including the recommended probability-of-outperforming test), and
  Noether sample-size determination;
* :mod:`repro.data`, :mod:`repro.pipelines`, :mod:`repro.hpo` — the
  substrates: synthetic case-study analogue tasks, from-scratch NumPy
  learning pipelines with independently seedable sources of variance, and
  hyperparameter-optimization algorithms (random search, noisy grid
  search, Gaussian-process Bayesian optimization);
* :mod:`repro.stats` — the statistical machinery (bootstrap confidence
  intervals, binomial test-set noise model, Mann-Whitney P(A>B), Eq. 7);
* :mod:`repro.engine` — the measurement engine: a parallel executor
  (``n_jobs``), a content-addressed measurement cache, and the
  :class:`StudyRunner` facade every study fans its pre-drawn seed batches
  through (bitwise-identical results at any worker count);
* :mod:`repro.simulation` and :mod:`repro.experiments` — the simulation
  framework and one experiment module per figure/table of the paper;
* :mod:`repro.api` — the unified Study API: declarative
  :class:`StudySpec` descriptions of registered studies, executed through
  a :class:`Session` that shares one measurement cache and executor
  across every study (see ``EXPERIMENTS.md`` for the full catalogue).

Quickstart::

    from repro import BenchmarkProcess, compare_pipelines, get_task

    task = get_task("entailment")
    dataset = task.make_dataset(random_state=0)
    a = BenchmarkProcess(dataset, task.make_pipeline(hidden_sizes=(32,)))
    b = BenchmarkProcess(dataset, task.make_pipeline(hidden_sizes=(4,)))
    report, scores = compare_pipelines(a, b, k=20, random_state=0)
    print(report.conclusion)

Or declaratively, through the unified Study API::

    from repro import Session, StudySpec

    with Session(n_jobs=4) as session:
        result = session.run(StudySpec(
            study="variance",
            params={"task_names": ["entailment"], "n_seeds": 20},
            random_state=0,
        ))
        print(result.summary())
"""

from repro.api import (
    Session,
    StudyHandle,
    StudyResult,
    StudySpec,
    SuiteResult,
    SuiteSpec,
    get_study,
    list_studies,
    register_study,
)
from repro.core import (
    AverageComparison,
    BenchmarkProcess,
    ComparisonDecision,
    EstimatorResult,
    FixHOptEstimator,
    IdealEstimator,
    ProbabilityOfOutperforming,
    SignificanceConclusion,
    SignificanceReport,
    SinglePointComparison,
    compare_pipelines,
    estimator_cost,
    minimum_sample_size,
    paired_measurements,
    probability_of_outperforming_test,
    rank_algorithms,
    replicability_analysis,
    variance_decomposition_study,
)
from repro.data import Dataset, get_task, list_tasks
from repro.engine import MeasurementCache, ParallelExecutor, StudyRunner, WorkItem
from repro.utils import SeedBundle, SeedScope

__version__ = "1.0.0"

__all__ = [
    "AverageComparison",
    "BenchmarkProcess",
    "ComparisonDecision",
    "EstimatorResult",
    "FixHOptEstimator",
    "IdealEstimator",
    "ProbabilityOfOutperforming",
    "SignificanceConclusion",
    "SignificanceReport",
    "SinglePointComparison",
    "compare_pipelines",
    "estimator_cost",
    "minimum_sample_size",
    "paired_measurements",
    "probability_of_outperforming_test",
    "rank_algorithms",
    "replicability_analysis",
    "variance_decomposition_study",
    "Dataset",
    "get_task",
    "list_tasks",
    "MeasurementCache",
    "ParallelExecutor",
    "StudyRunner",
    "WorkItem",
    "SeedBundle",
    "SeedScope",
    "Session",
    "StudyHandle",
    "StudyResult",
    "StudySpec",
    "SuiteResult",
    "SuiteSpec",
    "get_study",
    "list_studies",
    "register_study",
    "__version__",
]
