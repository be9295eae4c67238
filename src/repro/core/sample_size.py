"""Noether sample-size determination for the P(A>B) test (Appendix C.3).

Estimating :math:`P(A>B)` is equivalent to a Mann-Whitney test, so
Noether's (1987) sample-size formula applies:

.. math::

    N \\geq \\left( \\frac{\\Phi^{-1}(1-\\alpha) - \\Phi^{-1}(\\beta)}
                        {\\sqrt{6}\\,(\\tfrac{1}{2} - \\gamma)} \\right)^2

With the paper's recommended threshold :math:`\\gamma = 0.75` and
:math:`\\alpha = \\beta = 0.05`, the minimum number of paired trainings is
29 (Figure C.1).
"""

from __future__ import annotations

import numpy as np

from repro.stats._ndtri import norm_ppf
from repro.utils.validation import check_fraction

__all__ = ["minimum_sample_size", "sample_size_curve"]


def minimum_sample_size(
    gamma: float,
    *,
    alpha: float = 0.05,
    beta: float = 0.05,
) -> int:
    """Minimum number of paired runs to detect :math:`P(A>B) > \\gamma`.

    Parameters
    ----------
    gamma:
        Alternative-hypothesis threshold on :math:`P(A>B)`; must differ
        from 0.5 (at exactly 0.5 no sample size can separate the
        hypotheses).
    alpha:
        Desired false-positive rate.
    beta:
        Desired false-negative rate (1 - statistical power).

    Returns
    -------
    int
        Minimum sample size, rounded up.
    """
    gamma = check_fraction(gamma, "gamma")
    alpha = check_fraction(alpha, "alpha")
    beta = check_fraction(beta, "beta")
    if gamma == 0.5:
        raise ValueError("gamma must differ from 0.5")
    numerator = norm_ppf(1.0 - alpha) - norm_ppf(beta)
    denominator = np.sqrt(6.0) * (0.5 - gamma)
    return int(np.ceil((numerator / denominator) ** 2))


def sample_size_curve(
    gammas: np.ndarray,
    *,
    alpha: float = 0.05,
    beta: float = 0.05,
) -> np.ndarray:
    """Vectorized :func:`minimum_sample_size` over thresholds (Figure C.1)."""
    gammas = np.asarray(gammas, dtype=float)
    return np.array(
        [minimum_sample_size(g, alpha=alpha, beta=beta) for g in gammas], dtype=int
    )
