"""Gaussian-process Bayesian optimization.

The optimizer works on the unit hypercube: observed configurations are
mapped through :meth:`repro.hpo.space.SearchSpace.to_unit`, a GP is fitted
to the observed objective values, and the next configuration maximizes
expected improvement over a random candidate pool.  The candidate pool and
the initial design are drawn from the caller-provided generator, so the
whole procedure is seeded by the :math:`\\xi_H` source.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.hpo.acquisition import expected_improvement
from repro.hpo.base import HPOptimizer, Trial
from repro.hpo.gp import GaussianProcess
from repro.hpo.space import SearchSpace

__all__ = ["BayesianOptimization"]


class BayesianOptimization(HPOptimizer):
    """Sequential model-based optimization with a GP surrogate and EI.

    Parameters
    ----------
    n_initial_points:
        Number of random configurations evaluated before the GP is used.
    n_candidates:
        Size of the random candidate pool scored by expected improvement at
        every iteration.
    length_scale, noise_variance:
        GP kernel hyperparameters (on the unit hypercube).
    xi:
        Exploration bonus of expected improvement.
    """

    name = "bayesopt"

    def __init__(
        self,
        n_initial_points: int = 5,
        n_candidates: int = 256,
        length_scale: float = 0.2,
        noise_variance: float = 1e-3,
        xi: float = 0.01,
    ) -> None:
        if n_initial_points < 1:
            raise ValueError("n_initial_points must be >= 1")
        if n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        self.n_initial_points = int(n_initial_points)
        self.n_candidates = int(n_candidates)
        self.length_scale = float(length_scale)
        self.noise_variance = float(noise_variance)
        self.xi = float(xi)

    def propose(
        self,
        space: SearchSpace,
        history: List[Trial],
        rng: np.random.Generator,
        budget: int,
    ) -> Dict[str, float]:
        if len(history) < self.n_initial_points:
            return space.sample(rng)
        X = np.vstack([space.to_unit(trial.config) for trial in history])
        y = np.array([trial.value for trial in history], dtype=float)
        gp = GaussianProcess(
            length_scale=self.length_scale, noise_variance=self.noise_variance
        )
        try:
            gp.fit(X, y)
        except np.linalg.LinAlgError:
            # Ill-conditioned kernel (e.g. duplicated points): fall back to
            # random exploration for this iteration.
            return space.sample(rng)
        candidates = rng.random((self.n_candidates, len(space)))
        mean, std = gp.predict(candidates)
        scores = expected_improvement(mean, std, best_value=float(y.min()), xi=self.xi)
        best = candidates[int(np.argmax(scores))]
        return space.from_unit(best)

    def propose_batch(
        self,
        space: SearchSpace,
        history: List[Trial],
        rng: np.random.Generator,
        budget: int,
    ) -> List[Dict[str, float]]:
        """The remaining initial random draws at once, then one at a time."""
        initial = min(self.n_initial_points, budget) - len(history)
        if initial > 0:
            return [space.sample(rng) for _ in range(initial)]
        return [self.propose(space, history, rng, budget)]
