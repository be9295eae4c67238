"""Algorithm 1 (ideal estimator) and Algorithm 2 (biased estimator).

Both estimators produce ``k`` measurements of the benchmark process and
summarize them by their mean :math:`\\mu_{(k)}` and standard deviation
:math:`\\sigma_{(k)}`.  They differ only in which seeds change between
measurements:

* ``IdealEstimator`` (Algorithm 1, ``IdealEst(k)``): every source of
  variation, *including* the hyperparameter-optimization seed, is
  re-randomized for every measurement, and HOpt is re-run each time.  Cost:
  :math:`O(k \\cdot T)` fits.  Unbiased.
* ``FixHOptEstimator`` (Algorithm 2, ``FixHOptEst(k, subset)``): HOpt runs
  once; the resulting hyperparameters are reused for all ``k``
  measurements, between which only the requested subset of :math:`\\xi_O`
  sources is re-randomized (``"init"``, ``"data"`` or ``"all"``).  Cost:
  :math:`O(k + T)` fits.  Biased, with correlated measurements (Eq. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.core.benchmark import BenchmarkProcess, Measurement
from repro.core.sources import VarianceSource, sources_for_subset
from repro.engine.runner import StudyRunner, WorkItem, ensure_runner
from repro.utils.rng import SeedBundle, SeedScope
from repro.utils.validation import check_positive_int

__all__ = ["EstimatorResult", "IdealEstimator", "FixHOptEstimator", "estimator_cost"]


@dataclass
class EstimatorResult:
    """Result of estimating the expected empirical risk with ``k`` samples.

    Attributes
    ----------
    scores:
        The ``k`` test scores :math:`\\hat{R}_{e_i}` (larger is better).
    estimator_name:
        Name of the estimator that produced the scores.
    n_fits:
        Total number of model fits consumed (the paper's cost unit).
    hparams:
        Hyperparameters used, when shared across measurements (biased
        estimator only).
    measurements:
        Full measurement records.
    """

    scores: np.ndarray
    estimator_name: str
    n_fits: int
    hparams: Optional[Dict[str, Any]] = None
    measurements: List[Measurement] = field(default_factory=list)

    @property
    def k(self) -> int:
        """Number of measurements."""
        return int(self.scores.size)

    @property
    def mean(self) -> float:
        """Average performance :math:`\\mu_{(k)}`."""
        return float(np.mean(self.scores))

    @property
    def std(self) -> float:
        """Standard deviation :math:`\\sigma_{(k)}` (ddof=1)."""
        if self.scores.size < 2:
            return 0.0
        return float(np.std(self.scores, ddof=1))

    @property
    def standard_error(self) -> float:
        """Standard error of the mean under the i.i.d. assumption."""
        if self.scores.size == 0:
            return 0.0
        return self.std / np.sqrt(self.scores.size)


def estimator_cost(k: int, hpo_budget: int, *, ideal: bool) -> int:
    """Number of model fits required by each estimator (Section 3.2).

    Parameters
    ----------
    k:
        Number of performance measurements.
    hpo_budget:
        Number of HOpt trials ``T``.
    ideal:
        ``True`` for the ideal estimator (:math:`k (T + 1)` fits), ``False``
        for the biased estimator (:math:`T + k` fits).

    The ratio of the two costs is the paper's headline "51× cheaper"
    figure for ``k = 100`` and ``T`` around 200.
    """
    k = check_positive_int(k, "k")
    hpo_budget = check_positive_int(hpo_budget, "hpo_budget")
    if ideal:
        return k * (hpo_budget + 1)
    return hpo_budget + k


class IdealEstimator:
    """Algorithm 1: re-run hyperparameter optimization for every measurement."""

    name = "IdealEst"

    def estimate(
        self,
        process: BenchmarkProcess,
        k: int,
        *,
        random_state=None,
        runner: Optional[StudyRunner] = None,
    ) -> EstimatorResult:
        """Collect ``k`` fully independent measurements of ``process``.

        Every measurement gets a fresh :class:`~repro.utils.rng.SeedBundle`
        (all :math:`\\xi_O` and :math:`\\xi_H` sources randomized) and runs a
        full HOpt before the final fit.  Bundle ``i`` is derived from the
        scope path ``k=<i>`` under ``random_state`` (an int, a numpy
        Generator, a :class:`~repro.utils.rng.SeedScope` or ``None``), then
        the batch executes through ``runner`` (a serial
        :class:`~repro.engine.runner.StudyRunner` by default), so results
        are identical for any ``n_jobs``.
        """
        k = check_positive_int(k, "k")
        scope = SeedScope.from_state(random_state)
        runner = ensure_runner(runner, process)
        items = [
            WorkItem.from_scope(scope.child("k", i), with_hpo=True)
            for i in range(k)
        ]
        measurements = runner.run(items)
        scores = np.array([m.test_score for m in measurements], dtype=float)
        return EstimatorResult(
            scores=scores,
            estimator_name=f"{self.name}({k})",
            n_fits=sum(m.n_fits for m in measurements),
            measurements=measurements,
        )


class FixHOptEstimator:
    """Algorithm 2: run HOpt once, then randomize a subset of sources.

    Parameters
    ----------
    randomize:
        Which sources to re-randomize between measurements: ``"init"``,
        ``"data"``, ``"all"`` (every learning-procedure source), or an
        explicit iterable of :class:`~repro.core.sources.VarianceSource`.
    """

    name = "FixHOptEst"

    def __init__(self, randomize: str | Iterable[VarianceSource] = "all") -> None:
        self.sources = sources_for_subset(randomize)
        self.subset_label = (
            randomize if isinstance(randomize, str) else "custom"
        )

    def estimate(
        self,
        process: BenchmarkProcess,
        k: int,
        *,
        random_state=None,
        hparams: Optional[Dict[str, Any]] = None,
        base_seeds: Optional[SeedBundle] = None,
        runner: Optional[StudyRunner] = None,
    ) -> EstimatorResult:
        """Collect ``k`` correlated measurements sharing one HOpt outcome.

        Parameters
        ----------
        process:
            Benchmark process to measure.
        k:
            Number of measurements.
        random_state:
            An int, a numpy Generator, a :class:`~repro.utils.rng.SeedScope`
            or ``None``.  The base bundle (unless ``base_seeds`` is given)
            and each measurement's randomized subset (``k=<i>``) are
            derived from scope paths under it.
        hparams:
            Pre-computed hyperparameters; when given, the HOpt run is
            skipped (useful to amortize one HOpt across repetitions of the
            estimator, as in the paper's 20-repetition protocol).
        base_seeds:
            Seed bundle defining the *fixed* values of the sources that are
            not randomized; derived from ``random_state`` when omitted.
        runner:
            Measurement engine the ``k`` measurements are submitted
            through; a serial runner is built when omitted.
        """
        k = check_positive_int(k, "k")
        scope = SeedScope.from_state(random_state)
        runner = ensure_runner(runner, process)
        seeds = scope.bundle() if base_seeds is None else base_seeds
        n_fits = 0
        if hparams is None:
            hpo_result = process.run_hpo(seeds)
            hparams = hpo_result.best_config
            n_fits += process.hpo_budget
        # Sorted so the per-source seed assignment is stable across processes
        # (set iteration order depends on the interpreter's hash seed).
        source_names = sorted(s.value for s in self.sources)
        items: List[WorkItem] = []
        for i in range(k):
            measure_scope = scope.child("k", i)
            items.append(
                WorkItem(
                    seeds=seeds.with_seeds(**measure_scope.seeds_for(source_names)),
                    hparams=hparams,
                    scope_path=measure_scope.path_str(),
                )
            )
        measurements = runner.run(items)
        n_fits += k
        scores = np.array([m.test_score for m in measurements], dtype=float)
        return EstimatorResult(
            scores=scores,
            estimator_name=f"{self.name}({k}, {self.subset_label})",
            n_fits=n_fits,
            hparams=dict(hparams),
            measurements=measurements,
        )
