"""Acquisition functions for Bayesian optimization."""

from __future__ import annotations

import numpy as np

__all__ = ["expected_improvement", "upper_confidence_bound"]


def expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best_value: float,
    xi: float = 0.01,
) -> np.ndarray:
    """Expected improvement for a *minimization* problem.

    Parameters
    ----------
    mean, std:
        GP posterior mean and standard deviation at candidate points.
    best_value:
        Best (smallest) objective value observed so far.
    xi:
        Exploration bonus.
    """
    from scipy import stats as sps

    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    improvement = best_value - mean - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improvement / std, 0.0)
    ei = improvement * sps.norm.cdf(z) + std * sps.norm.pdf(z)
    return np.where(std > 0, np.maximum(ei, 0.0), np.maximum(improvement, 0.0))


def upper_confidence_bound(
    mean: np.ndarray,
    std: np.ndarray,
    kappa: float = 2.0,
) -> np.ndarray:
    """Negative lower confidence bound (larger is better) for minimization."""
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    return -(np.asarray(mean, dtype=float) - kappa * np.asarray(std, dtype=float))
