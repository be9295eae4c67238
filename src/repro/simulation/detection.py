"""Detection-rate experiments for comparison criteria (Figures 6 and I.6).

The experiment sweeps the true probability :math:`P(A>B)` that algorithm A
outperforms algorithm B, simulates many benchmark outcomes for each value,
applies each comparison criterion, and records its *rate of detections* —
the fraction of simulations where the criterion declares A better.  In the
region where :math:`H_0` is true (left of the sweep) that rate is the
false-positive rate; where :math:`H_1` is true it is the statistical power
(1 - false-negative rate).

Simulations are independent, so they run through the measurement engine's
:class:`~repro.engine.executor.ParallelExecutor`: each simulation's seed is
derived from its scope path under ``random_state`` before any runs, which
makes the detection rate at a fixed ``random_state`` bitwise identical for
any ``n_jobs``.  Every function here takes ``random_state`` as an int, a
numpy Generator, a :class:`~repro.utils.rng.SeedScope` or ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.core.comparison import ComparisonMethod
from repro.engine.executor import ParallelExecutor
from repro.simulation.performance_model import (
    SimulatedTask,
    mean_shift_for_probability,
    simulate_biased_measurements,
    simulate_ideal_measurements,
)
from repro.utils.rng import SeedScope
from repro.utils.validation import check_positive_int

__all__ = [
    "DetectionRateResult",
    "detection_rate",
    "detection_rate_curve",
    "robustness_to_sample_size",
    "robustness_to_threshold",
]


@dataclass
class DetectionRateResult:
    """Detection rates of one criterion across the :math:`P(A>B)` sweep.

    Attributes
    ----------
    method:
        Criterion name.
    estimator:
        ``"ideal"`` or ``"biased"`` — which simulation model produced the
        measurements.
    probabilities:
        The swept true probabilities of outperforming.
    rates:
        Detection rate (in [0, 1]) at each probability.
    """

    method: str
    estimator: str
    probabilities: np.ndarray
    rates: np.ndarray

    def as_rows(self) -> list[dict]:
        """Rows for plain-text reporting."""
        return [
            {
                "method": self.method,
                "estimator": self.estimator,
                "p_a_gt_b": float(p),
                "detection_rate": float(r),
            }
            for p, r in zip(self.probabilities, self.rates)
        ]


def _simulate_pair(
    task: SimulatedTask,
    k: int,
    mean_shift: float,
    estimator: str,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate paired measurement vectors for algorithms A and B."""
    if estimator == "ideal":
        scores_a = simulate_ideal_measurements(task, k, mean_shift=mean_shift, random_state=rng)
        scores_b = simulate_ideal_measurements(task, k, mean_shift=0.0, random_state=rng)
    elif estimator == "biased":
        scores_a = simulate_biased_measurements(task, k, mean_shift=mean_shift, random_state=rng)
        scores_b = simulate_biased_measurements(task, k, mean_shift=0.0, random_state=rng)
    else:
        raise ValueError("estimator must be 'ideal' or 'biased'")
    return scores_a, scores_b


def _run_one_simulation(args) -> bool:
    """One simulated benchmark and decision (top level: picklable)."""
    method, task, k, mean_shift, estimator, seed = args
    rng = np.random.default_rng(seed)
    scores_a, scores_b = _simulate_pair(task, k, mean_shift, estimator, rng)
    return bool(method.decide(scores_a, scores_b).a_is_better)


def detection_rate(
    method: ComparisonMethod,
    task: SimulatedTask,
    p_a_gt_b: float,
    *,
    k: int = 50,
    estimator: str = "ideal",
    n_simulations: int = 100,
    random_state=None,
    executor: Optional[ParallelExecutor] = None,
    n_jobs: int = 1,
) -> float:
    """Rate at which ``method`` declares A better, at one true P(A>B).

    Simulation ``i`` is seeded from the scope path ``sim=<i>`` under
    ``random_state``, so the rate does not depend on what ran before; the
    simulations then fan out over ``executor`` (or a fresh
    :class:`ParallelExecutor` with ``n_jobs`` workers), so it does not
    depend on the worker count either.
    """
    n_simulations = check_positive_int(n_simulations, "n_simulations")
    if estimator not in ("ideal", "biased"):
        raise ValueError("estimator must be 'ideal' or 'biased'")
    scope = SeedScope.from_state(random_state)
    if executor is None:
        executor = ParallelExecutor(n_jobs)
    mean_shift = mean_shift_for_probability(p_a_gt_b, task.sigma)
    args = [
        (method, task, k, mean_shift, estimator, scope.child("sim", i).seed())
        for i in range(n_simulations)
    ]
    detections = sum(executor.map(_run_one_simulation, args))
    return detections / n_simulations


def detection_rate_curve(
    method: ComparisonMethod,
    task: SimulatedTask,
    probabilities: Iterable[float],
    *,
    k: int = 50,
    estimator: str = "ideal",
    n_simulations: int = 100,
    random_state=None,
    executor: Optional[ParallelExecutor] = None,
    n_jobs: int = 1,
) -> DetectionRateResult:
    """Sweep the true P(A>B) and record the detection rate (Figure 6).

    Each swept probability gets the sub-scope ``p=<value>`` under
    ``random_state``, so its simulations are addressed independently of
    the sweep order.
    """
    scope = SeedScope.from_state(random_state)
    if executor is None:
        executor = ParallelExecutor(n_jobs)
    probabilities = np.asarray(list(probabilities), dtype=float)
    rates = np.array(
        [
            detection_rate(
                method,
                task,
                p,
                k=k,
                estimator=estimator,
                n_simulations=n_simulations,
                random_state=scope.child("p", repr(float(p))),
                executor=executor,
            )
            for p in probabilities
        ]
    )
    return DetectionRateResult(
        method=method.name,
        estimator=estimator,
        probabilities=probabilities,
        rates=rates,
    )


def robustness_to_sample_size(
    methods: Dict[str, ComparisonMethod],
    task: SimulatedTask,
    *,
    sample_sizes: Sequence[int] = (10, 20, 50, 100),
    p_a_gt_b: float = 0.75,
    estimator: str = "ideal",
    n_simulations: int = 100,
    random_state=None,
    executor: Optional[ParallelExecutor] = None,
    n_jobs: int = 1,
) -> Dict[str, np.ndarray]:
    """Detection rate versus sample size at a fixed true P(A>B) (Figure I.6, top).

    Returns a mapping from method name to the detection rates at each
    sample size.  Each cell is addressed by the sub-scope
    ``method=<name>/k=<size>`` under ``random_state``.
    """
    scope = SeedScope.from_state(random_state)
    if executor is None:
        executor = ParallelExecutor(n_jobs)
    results: Dict[str, np.ndarray] = {}
    for name, method in methods.items():
        rates = []
        for k in sample_sizes:
            rates.append(
                detection_rate(
                    method,
                    task,
                    p_a_gt_b,
                    k=int(k),
                    estimator=estimator,
                    n_simulations=n_simulations,
                    random_state=scope.child("method", name).child("k", int(k)),
                    executor=executor,
                )
            )
        results[name] = np.array(rates)
    return results


def robustness_to_threshold(
    method_factory,
    task: SimulatedTask,
    *,
    thresholds: Sequence[float] = (0.6, 0.7, 0.75, 0.8, 0.9),
    p_a_gt_b: float = 0.75,
    k: int = 50,
    estimator: str = "ideal",
    n_simulations: int = 100,
    random_state=None,
    executor: Optional[ParallelExecutor] = None,
    n_jobs: int = 1,
) -> Dict[float, float]:
    """Detection rate versus decision threshold γ (Figure I.6, bottom).

    Parameters
    ----------
    method_factory:
        Callable ``gamma -> ComparisonMethod`` building the criterion for a
        given threshold (for the average comparison the threshold is
        converted to an equivalent δ by the caller).

    Each threshold is addressed by the sub-scope ``gamma=<value>`` under
    ``random_state``.
    """
    scope = SeedScope.from_state(random_state)
    if executor is None:
        executor = ParallelExecutor(n_jobs)
    results: Dict[float, float] = {}
    for gamma in thresholds:
        method = method_factory(float(gamma))
        results[float(gamma)] = detection_rate(
            method,
            task,
            p_a_gt_b,
            k=k,
            estimator=estimator,
            n_simulations=n_simulations,
            random_state=scope.child("gamma", repr(float(gamma))),
            executor=executor,
        )
    return results
