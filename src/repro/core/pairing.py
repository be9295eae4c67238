"""Paired benchmark comparisons (Appendix C.2).

Pairing means running algorithms A and B under the *same* realization of
every shared source of variance — same data splits, same data order seeds,
and so on — so the difference of their performances marginalizes out those
shared fluctuations.  This reduces the variance of the difference and
therefore increases statistical power at a given sample size.

:func:`paired_measurements` produces the paired performance vectors and
:func:`compare_pipelines` runs the full recommended workflow: sample size
from Noether's formula, paired measurements with the biased (affordable)
estimator, and the probability-of-outperforming test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.benchmark import BenchmarkProcess
from repro.core.sample_size import minimum_sample_size
from repro.core.significance import SignificanceReport, probability_of_outperforming_test
from repro.core.sources import sources_for_subset
from repro.engine.runner import StudyRunner, WorkItem, ensure_runner
from repro.utils.rng import SeedBundle, SeedScope
from repro.utils.validation import check_positive_int

__all__ = ["PairedScores", "paired_seed_bundles", "paired_measurements", "compare_pipelines"]


@dataclass(frozen=True)
class PairedScores:
    """Paired performance measurements of two benchmark processes."""

    scores_a: np.ndarray
    scores_b: np.ndarray

    def differences(self) -> np.ndarray:
        """Per-pair performance differences ``A - B``."""
        return self.scores_a - self.scores_b


def paired_seed_bundles(
    k: int,
    *,
    randomize: str = "all",
    random_state=None,
) -> list[SeedBundle]:
    """Derive ``k`` seed bundles to be shared by both algorithms.

    Parameters
    ----------
    k:
        Number of paired runs.
    randomize:
        Which sources get a fresh seed per pair (``"init"``, ``"data"`` or
        ``"all"``); the remaining sources keep a common fixed seed across
        all pairs.
    random_state:
        An int, a numpy Generator, a :class:`~repro.utils.rng.SeedScope` or
        ``None``; pair ``i``'s fresh seeds are derived from the scope path
        ``pair=<i>`` under it.
    """
    k = check_positive_int(k, "k")
    scope = SeedScope.from_state(random_state)
    # Sorted so the per-source seed assignment is stable across processes.
    names = sorted(s.value for s in sources_for_subset(randomize))
    base = scope.bundle()
    return [
        base.with_seeds(**scope.child("pair", i).seeds_for(names))
        for i in range(k)
    ]


def paired_measurements(
    process_a: BenchmarkProcess,
    process_b: BenchmarkProcess,
    k: int,
    *,
    randomize: str = "all",
    hparams_a=None,
    hparams_b=None,
    run_hpo: bool = True,
    random_state=None,
    runner_a: Optional[StudyRunner] = None,
    runner_b: Optional[StudyRunner] = None,
    n_jobs: int = 1,
) -> PairedScores:
    """Measure both processes ``k`` times on shared seed bundles.

    When ``run_hpo`` is true and explicit hyperparameters are not given,
    one HOpt run per process is performed first (the affordable
    ``FixHOptEst``-style protocol); its selected configuration is reused for
    all ``k`` paired measurements.

    The ``2k`` measurements execute through the measurement engine:
    supply ``runner_a``/``runner_b`` (bound to the respective processes)
    to share executors and caches across comparisons, or just ``n_jobs``
    for default runners.  The seed bundles come from
    :func:`paired_seed_bundles` before anything runs, so the paired scores
    are identical for any worker count.
    """
    bundles = paired_seed_bundles(k, randomize=randomize, random_state=random_state)
    runner_a = ensure_runner(runner_a, process_a, n_jobs=n_jobs)
    runner_b = ensure_runner(runner_b, process_b, n_jobs=n_jobs)
    if hparams_a is None and run_hpo:
        hparams_a = process_a.run_hpo(bundles[0]).best_config
    if hparams_b is None and run_hpo:
        hparams_b = process_b.run_hpo(bundles[0]).best_config
    scores_a = runner_a.run_scores(
        [WorkItem(seeds=seeds, hparams=hparams_a) for seeds in bundles]
    )
    scores_b = runner_b.run_scores(
        [WorkItem(seeds=seeds, hparams=hparams_b) for seeds in bundles]
    )
    return PairedScores(scores_a=scores_a, scores_b=scores_b)


def compare_pipelines(
    process_a: BenchmarkProcess,
    process_b: BenchmarkProcess,
    *,
    k: Optional[int] = None,
    gamma: float = 0.75,
    alpha: float = 0.05,
    beta: float = 0.05,
    randomize: str = "all",
    random_state=None,
    n_jobs: int = 1,
) -> Tuple[SignificanceReport, PairedScores]:
    """End-to-end recommended comparison of two learning pipelines.

    Parameters
    ----------
    process_a, process_b:
        Benchmark processes wrapping the two algorithms on the same dataset.
    k:
        Number of paired runs; defaults to Noether's minimum sample size for
        the chosen ``gamma``, ``alpha`` and ``beta``.
    gamma:
        Meaningfulness threshold on :math:`P(A>B)`.
    alpha, beta:
        Target false-positive and false-negative rates.
    randomize:
        Sources randomized between paired runs.
    random_state:
        An int, a numpy Generator, a :class:`~repro.utils.rng.SeedScope` or
        ``None``; the paired runs derive their seeds from the scope path
        ``pairs`` under it, and the bootstrap test from ``significance``.
    n_jobs:
        Workers for the paired measurements (identical scores for any
        value; the shared seed bundles are pre-drawn).

    Returns
    -------
    (report, scores):
        The significance report of the probability-of-outperforming test
        and the underlying paired scores.
    """
    if k is None:
        k = minimum_sample_size(gamma, alpha=alpha, beta=beta)
    scope = SeedScope.from_state(random_state)
    pairs = scope.child("pairs")
    scores = paired_measurements(
        process_a, process_b, k, randomize=randomize, random_state=pairs, n_jobs=n_jobs
    )
    report = probability_of_outperforming_test(
        scores.scores_a,
        scores.scores_b,
        gamma=gamma,
        alpha=alpha,
        random_state=scope.child("significance").rng(),
    )
    return report, scores
