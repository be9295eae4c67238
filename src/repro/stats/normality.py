"""Normality diagnostics for performance distributions (Figure G.3).

The paper justifies normal approximations of the empirical-risk
fluctuations with Shapiro-Wilk tests applied to every (task, source of
variation) cell.  These helpers reproduce that analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.utils.validation import check_array

__all__ = ["shapiro_wilk_pvalue", "normality_report", "NormalityResult"]


@dataclass(frozen=True)
class NormalityResult:
    """Result of a normality check on one sample.

    Attributes
    ----------
    statistic:
        Shapiro-Wilk W statistic.
    pvalue:
        p-value of the test; large values are consistent with normality.
    n:
        Sample size.
    mean, std:
        Sample mean and standard deviation (ddof=1).
    """

    statistic: float
    pvalue: float
    n: int
    mean: float
    std: float

    def is_consistent_with_normal(self, alpha: float = 0.05) -> bool:
        """Whether the sample passes the test at level ``alpha``."""
        return self.pvalue > alpha


def shapiro_wilk_pvalue(values: np.ndarray) -> float:
    """p-value of the Shapiro-Wilk normality test.

    Degenerate samples (length < 3 or zero variance) return ``0.0`` since
    normality cannot be supported.
    """
    from scipy import stats as sps

    values = check_array(values, ndim=1, min_length=1, name="values")
    if values.size < 3 or np.std(values) == 0:
        return 0.0
    return float(sps.shapiro(values).pvalue)


def normality_report(values: np.ndarray) -> NormalityResult:
    """Full normality diagnostic for one sample of performance measures."""
    from scipy import stats as sps

    values = check_array(values, ndim=1, min_length=1, name="values")
    if values.size < 3 or np.std(values) == 0:
        stat, pvalue = 0.0, 0.0
    else:
        res = sps.shapiro(values)
        stat, pvalue = float(res.statistic), float(res.pvalue)
    return NormalityResult(
        statistic=stat,
        pvalue=pvalue,
        n=int(values.size),
        mean=float(np.mean(values)),
        std=float(np.std(values, ddof=1)) if values.size > 1 else 0.0,
    )


def normality_by_group(groups: Mapping[str, np.ndarray]) -> dict[str, NormalityResult]:
    """Apply :func:`normality_report` to each named group of measurements."""
    return {name: normality_report(np.asarray(vals)) for name, vals in groups.items()}
