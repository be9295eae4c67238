"""Classical location tests used by the average-comparison criterion.

The paper contrasts its recommended :math:`P(A>B)` criterion with the
common practice of comparing average performances, optionally through a
z-test or t-test.  These light-weight implementations return a uniform
:class:`TestResult` so decision code can treat them interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_array

__all__ = ["TestResult", "z_test", "t_test", "paired_t_test"]


@dataclass(frozen=True)
class TestResult:
    """Outcome of a two-sample location test.

    Attributes
    ----------
    statistic:
        Test statistic (z or t).
    pvalue:
        One-sided p-value for the alternative "A has larger mean than B".
    effect:
        Observed difference of means ``mean(a) - mean(b)``.
    df:
        Degrees of freedom (``inf`` for the z-test).
    """

    statistic: float
    pvalue: float
    effect: float
    df: float

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the one-sided test rejects at level ``alpha``."""
        return self.pvalue < alpha


def z_test(a: np.ndarray, b: np.ndarray) -> TestResult:
    """One-sided two-sample z-test using sample variances.

    Suitable when per-group variances are reliable (large samples), which is
    the regime assumed in Section 3.1 of the paper.
    """
    from scipy import stats as sps

    a = check_array(a, ndim=1, min_length=2, name="a")
    b = check_array(b, ndim=1, min_length=2, name="b")
    effect = float(np.mean(a) - np.mean(b))
    pooled_se = np.sqrt(np.var(a, ddof=1) / a.size + np.var(b, ddof=1) / b.size)
    if pooled_se == 0:
        statistic = np.inf if effect > 0 else (-np.inf if effect < 0 else 0.0)
    else:
        statistic = effect / pooled_se
    pvalue = float(sps.norm.sf(statistic))
    return TestResult(statistic=float(statistic), pvalue=pvalue, effect=effect, df=np.inf)


def t_test(a: np.ndarray, b: np.ndarray) -> TestResult:
    """One-sided Welch t-test (unequal variances)."""
    from scipy import stats as sps

    a = check_array(a, ndim=1, min_length=2, name="a")
    b = check_array(b, ndim=1, min_length=2, name="b")
    res = sps.ttest_ind(a, b, equal_var=False, alternative="greater")
    effect = float(np.mean(a) - np.mean(b))
    return TestResult(
        statistic=float(res.statistic),
        pvalue=float(res.pvalue),
        effect=effect,
        df=float(res.df),
    )


def paired_t_test(a: np.ndarray, b: np.ndarray) -> TestResult:
    """One-sided paired t-test on per-split differences.

    Pairing marginalizes out shared sources of variance (Appendix C.2),
    which shrinks the standard deviation of the difference and increases
    statistical power relative to the unpaired test.
    """
    from scipy import stats as sps

    a = check_array(a, ndim=1, min_length=2, name="a")
    b = check_array(b, ndim=1, min_length=2, name="b")
    if a.shape != b.shape:
        raise ValueError("paired samples must have the same length")
    res = sps.ttest_rel(a, b, alternative="greater")
    effect = float(np.mean(a) - np.mean(b))
    statistic = float(res.statistic) if np.isfinite(res.statistic) else 0.0
    pvalue = float(res.pvalue) if np.isfinite(res.pvalue) else 1.0
    return TestResult(statistic=statistic, pvalue=pvalue, effect=effect, df=float(a.size - 1))
