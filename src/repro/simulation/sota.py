"""Published state-of-the-art timelines and significance bands (Figure 3).

Figure 3 overlays published yearly improvements on CIFAR10 and SST-2 with
the benchmark standard deviation σ measured in the paper, marking each new
state of the art as significant when it improves on the previous one by
more than the significance threshold (≈2σ for a one-sided z-test at the 5%
level, on the difference of two measurements).

The paper reads the timelines from paperswithcode.com; since this
reproduction is offline, two substitutes are provided:

* :func:`load_sota_timeline` — a small frozen snapshot of well-known
  published accuracies (approximate, year-level) for the two benchmarks;
* :func:`synthetic_sota_timeline` — a generator of synthetic timelines with
  controllable increment sizes, used by tests and by the benchmark when a
  different shape is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.stats._ndtri import norm_ppf
from repro.utils.validation import check_random_state

__all__ = [
    "PublishedResult",
    "load_sota_timeline",
    "synthetic_sota_timeline",
    "significance_timeline",
]


@dataclass(frozen=True)
class PublishedResult:
    """One published benchmark result."""

    year: float
    accuracy: float
    is_sota: bool = True


#: Frozen, approximate snapshots of published accuracy timelines (fraction,
#: not percent).  Values are rounded to the first decimal of a percent and
#: only serve to compare increment sizes against the benchmark variance.
_SOTA_SNAPSHOTS: Dict[str, List[PublishedResult]] = {
    "cifar10": [
        PublishedResult(2012.0, 0.880),
        PublishedResult(2013.0, 0.902),
        PublishedResult(2014.5, 0.922),
        PublishedResult(2015.5, 0.936),
        PublishedResult(2016.5, 0.948),
        PublishedResult(2017.5, 0.963),
        PublishedResult(2018.5, 0.975),
        PublishedResult(2019.5, 0.985),
        PublishedResult(2020.5, 0.990),
    ],
    "sst2": [
        PublishedResult(2013.0, 0.854),
        PublishedResult(2014.0, 0.882),
        PublishedResult(2015.5, 0.893),
        PublishedResult(2017.0, 0.909),
        PublishedResult(2018.0, 0.915),
        PublishedResult(2018.8, 0.935),
        PublishedResult(2019.3, 0.950),
        PublishedResult(2019.8, 0.959),
        PublishedResult(2020.5, 0.968),
    ],
}


def load_sota_timeline(benchmark: str) -> List[PublishedResult]:
    """Return the frozen snapshot timeline for ``"cifar10"`` or ``"sst2"``."""
    key = benchmark.lower()
    if key not in _SOTA_SNAPSHOTS:
        raise KeyError(
            f"unknown benchmark {benchmark!r}; available: {sorted(_SOTA_SNAPSHOTS)}"
        )
    return list(_SOTA_SNAPSHOTS[key])


def synthetic_sota_timeline(
    *,
    n_results: int = 12,
    start_year: float = 2012.0,
    end_year: float = 2021.0,
    start_accuracy: float = 0.85,
    mean_increment: float = 0.01,
    increment_std: float = 0.006,
    random_state=None,
) -> List[PublishedResult]:
    """Generate a synthetic timeline of published accuracies.

    Increments are drawn from a truncated normal so accuracies are
    monotonically non-decreasing and capped below 1.
    """
    rng = check_random_state(random_state)
    years = np.sort(rng.uniform(start_year, end_year, size=n_results))
    accuracy = start_accuracy
    results = []
    for year in years:
        increment = max(0.0, rng.normal(mean_increment, increment_std))
        accuracy = min(0.999, accuracy + increment)
        results.append(PublishedResult(float(year), float(accuracy)))
    return results


@dataclass(frozen=True)
class TimelineEntry:
    """A published result annotated with its significance classification."""

    year: float
    accuracy: float
    improvement: float
    significant: bool


def significance_timeline(
    results: Sequence[PublishedResult],
    sigma: float,
    *,
    alpha: float = 0.05,
) -> List[TimelineEntry]:
    """Classify each successive improvement as significant or not.

    An improvement over the previous state of the art is significant when
    it exceeds :math:`z_{1-\\alpha}\\sqrt{2}\\sigma` — the one-sided z-test
    threshold for the difference of two independent measurements each with
    standard deviation σ (the red/yellow bands of Figure 3).

    Parameters
    ----------
    results:
        Published results ordered by year (they are sorted internally).
    sigma:
        Benchmark standard deviation measured with the ideal estimator.
    alpha:
        Test level.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    threshold = float(norm_ppf(1.0 - alpha) * np.sqrt(2.0) * sigma)
    ordered = sorted(results, key=lambda r: r.year)
    entries: List[TimelineEntry] = []
    best_so_far = None
    for result in ordered:
        if best_so_far is None:
            improvement = 0.0
            significant = False
        else:
            improvement = result.accuracy - best_so_far
            significant = improvement > threshold
        entries.append(
            TimelineEntry(
                year=result.year,
                accuracy=result.accuracy,
                improvement=float(improvement),
                significant=bool(significant),
            )
        )
        best_so_far = result.accuracy if best_so_far is None else max(best_so_far, result.accuracy)
    return entries
