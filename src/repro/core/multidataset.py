"""Comparisons across multiple datasets and many contestants (Section 6).

The main text of the paper focuses on comparing two algorithms on one task;
Section 6 discusses how its framework extends to the two situations every
benchmark eventually meets:

* **many datasets** — Demšar (2006) recommends the Wilcoxon signed-rank
  test (two algorithms) or the Friedman test (several algorithms) over
  per-dataset scores, but these have very low power with the 3–5 datasets
  typical of machine-learning papers; Dror et al. (2017) instead count the
  datasets with individually significant improvements under a
  multiple-comparison correction, which behaves well for small collections;
* **many contestants** — when a benchmark compares many algorithms, the
  per-comparison threshold γ (or the test level α) must be corrected for
  multiple comparisons, e.g. with a Bonferroni correction, at the price of
  stringency as the number of contestants grows.

This module implements those tools on top of the per-dataset
probability-of-outperforming reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.core.significance import (
    SignificanceReport,
    probability_of_outperforming_test,
)
from repro.stats._ndtri import norm_ppf
from repro.stats.tests import TestResult
from repro.utils.validation import check_array, check_fraction

__all__ = [
    "wilcoxon_signed_rank",
    "friedman_test",
    "bonferroni_correction",
    "holm_correction",
    "corrected_gamma",
    "MultiDatasetComparison",
    "replicability_analysis",
]


def wilcoxon_signed_rank(a: np.ndarray, b: np.ndarray) -> TestResult:
    """One-sided Wilcoxon signed-rank test on per-dataset scores (Demšar).

    Parameters
    ----------
    a, b:
        Per-dataset performance of the two algorithms (one entry per
        dataset, larger is better).  The alternative hypothesis is that A's
        scores are shifted above B's.
    """
    a = check_array(a, ndim=1, min_length=2, name="a")
    b = check_array(b, ndim=1, min_length=2, name="b")
    if a.shape != b.shape:
        raise ValueError("a and b must have one entry per dataset, paired")
    differences = a - b
    if np.allclose(differences, 0):
        return TestResult(statistic=0.0, pvalue=1.0, effect=0.0, df=float(a.size - 1))
    from scipy import stats as sps

    res = sps.wilcoxon(a, b, alternative="greater", zero_method="wilcox")
    return TestResult(
        statistic=float(res.statistic),
        pvalue=float(res.pvalue),
        effect=float(np.mean(differences)),
        df=float(a.size - 1),
    )


def friedman_test(scores: np.ndarray) -> TestResult:
    """Friedman rank test across several algorithms and datasets (Demšar).

    Parameters
    ----------
    scores:
        Array of shape ``(n_datasets, n_algorithms)``; larger is better.

    Returns
    -------
    TestResult
        The chi-square statistic, its p-value, and as ``effect`` the spread
        between the best and worst average rank.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] < 2 or scores.shape[1] < 3:
        raise ValueError("scores must be (n_datasets >= 2, n_algorithms >= 3)")
    from scipy import stats as sps

    res = sps.friedmanchisquare(*[scores[:, j] for j in range(scores.shape[1])])
    ranks = np.apply_along_axis(sps.rankdata, 1, -scores)
    average_ranks = ranks.mean(axis=0)
    return TestResult(
        statistic=float(res.statistic),
        pvalue=float(res.pvalue),
        effect=float(average_ranks.max() - average_ranks.min()),
        df=float(scores.shape[1] - 1),
    )


def bonferroni_correction(pvalues: Sequence[float], alpha: float = 0.05) -> List[bool]:
    """Bonferroni multiple-comparison correction.

    Returns, for each p-value, whether it is significant at family-wise
    level ``alpha`` (i.e. whether it is below ``alpha / m``).
    """
    alpha = check_fraction(alpha, "alpha")
    pvalues = [float(p) for p in pvalues]
    m = len(pvalues)
    if m == 0:
        return []
    return [p <= alpha / m for p in pvalues]


def holm_correction(pvalues: Sequence[float], alpha: float = 0.05) -> List[bool]:
    """Holm step-down correction (uniformly more powerful than Bonferroni)."""
    alpha = check_fraction(alpha, "alpha")
    pvalues = np.asarray([float(p) for p in pvalues])
    m = pvalues.size
    if m == 0:
        return []
    order = np.argsort(pvalues)
    significant = np.zeros(m, dtype=bool)
    for rank, index in enumerate(order):
        threshold = alpha / (m - rank)
        if pvalues[index] <= threshold:
            significant[index] = True
        else:
            break
    return significant.tolist()


def corrected_gamma(gamma: float, n_comparisons: int, alpha: float = 0.05) -> float:
    """Raise the meaningfulness threshold γ for multiple contestants.

    The paper suggests adjusting the decision threshold with a correction
    for multiple comparisons when a benchmark hosts many contestants.  This
    helper keeps the *meaningfulness* margin above chance,
    :math:`\\gamma - 0.5`, but requires it to be established at the
    Bonferroni-corrected confidence level: the returned threshold is the
    value that a single comparison would need so that the family-wise error
    rate over ``n_comparisons`` comparisons stays at ``alpha`` under the
    normal approximation of the Mann-Whitney statistic.

    Parameters
    ----------
    gamma:
        Per-comparison threshold (paper recommendation: 0.75).
    n_comparisons:
        Number of pairwise comparisons in the benchmark.
    alpha:
        Family-wise error level.

    Returns
    -------
    float
        A corrected threshold in ``[gamma, 1)``; with one comparison the
        input γ is returned unchanged.
    """
    gamma = check_fraction(gamma, "gamma")
    alpha = check_fraction(alpha, "alpha")
    if n_comparisons < 1:
        raise ValueError("n_comparisons must be >= 1")
    if n_comparisons == 1:
        return gamma
    # Scale the margin above 0.5 by the ratio of corrected to nominal
    # one-sided normal quantiles, capping below 1.
    nominal = norm_ppf(1.0 - alpha)
    corrected = norm_ppf(1.0 - alpha / n_comparisons)
    margin = (gamma - 0.5) * corrected / nominal
    return float(min(0.5 + margin, 0.999))


@dataclass
class MultiDatasetComparison:
    """Outcome of comparing two algorithms across several datasets.

    Attributes
    ----------
    per_dataset:
        Probability-of-outperforming report per dataset.
    wilcoxon:
        Demšar-style Wilcoxon signed-rank test on the per-dataset mean
        scores (``None`` with fewer than two datasets).
    significant_datasets:
        Names of datasets whose individual comparison is significant under
        the chosen multiple-comparison correction — Dror et al.'s
        replicability count.
    correction:
        Correction method used (``"bonferroni"`` or ``"holm"``).
    """

    per_dataset: Dict[str, SignificanceReport] = field(default_factory=dict)
    wilcoxon: TestResult | None = None
    significant_datasets: List[str] = field(default_factory=list)
    correction: str = "holm"

    @property
    def n_datasets(self) -> int:
        """Number of datasets compared."""
        return len(self.per_dataset)

    @property
    def replicability_count(self) -> int:
        """Number of datasets with an individually significant improvement."""
        return len(self.significant_datasets)

    def all_datasets_improve(self) -> bool:
        """Dror et al.'s acceptance rule: improvement on every dataset."""
        return self.n_datasets > 0 and self.replicability_count == self.n_datasets


def replicability_analysis(
    scores_a: Mapping[str, np.ndarray],
    scores_b: Mapping[str, np.ndarray],
    *,
    gamma: float = 0.75,
    alpha: float = 0.05,
    correction: str = "holm",
    n_bootstraps: int = 1000,
    random_state=None,
) -> MultiDatasetComparison:
    """Compare two algorithms across datasets (Dror et al. 2017 style).

    For every dataset, the paired probability-of-outperforming test is run;
    the per-dataset "significant" verdicts are then corrected for multiple
    comparisons (Bonferroni or Holm) by testing each dataset's
    :math:`P(A>B) > 0.5` with a correspondingly tightened confidence level.
    The Demšar-style Wilcoxon test over per-dataset means is also reported
    for contrast.

    Parameters
    ----------
    scores_a, scores_b:
        Mapping from dataset name to the paired per-run scores of each
        algorithm on that dataset.
    gamma, alpha, n_bootstraps, random_state:
        Passed to the per-dataset tests.
    correction:
        ``"bonferroni"`` or ``"holm"``.
    """
    if set(scores_a) != set(scores_b):
        raise ValueError("scores_a and scores_b must cover the same datasets")
    if correction not in ("bonferroni", "holm"):
        raise ValueError("correction must be 'bonferroni' or 'holm'")
    from scipy import stats as sps

    names = sorted(scores_a)
    m = len(names)
    result = MultiDatasetComparison(correction=correction)
    # Per-dataset tests at the family-wise corrected level: Bonferroni
    # tightens every dataset's CI; Holm is applied afterwards on approximate
    # p-values derived from the per-dataset win counts.
    corrected_alpha = alpha / m if correction == "bonferroni" else alpha
    approx_pvalues = []
    for name in names:
        report = probability_of_outperforming_test(
            scores_a[name],
            scores_b[name],
            gamma=gamma,
            alpha=corrected_alpha,
            n_bootstraps=n_bootstraps,
            random_state=random_state,
        )
        result.per_dataset[name] = report
        # Normal approximation of the paired win-rate under the null
        # (Var(p_hat) = 1/(4n)) used only to order datasets for Holm.
        n = report.n_pairs
        z = (report.p_a_gt_b - 0.5) * 2.0 * np.sqrt(n)
        approx_pvalues.append(float(sps.norm.sf(z)))
    if correction == "bonferroni":
        flags = [result.per_dataset[name].significant for name in names]
    else:
        flags = holm_correction(approx_pvalues, alpha=alpha)
    result.significant_datasets = [name for name, keep in zip(names, flags) if keep]
    if m >= 2:
        means_a = np.array([np.mean(scores_a[name]) for name in names])
        means_b = np.array([np.mean(scores_b[name]) for name in names])
        result.wilcoxon = wilcoxon_signed_rank(means_a, means_b)
    return result
