"""Random search over the hyperparameter space.

The paper's random search samples each dimension uniformly (in log-space
for log-uniform dimensions), over a range slightly widened by half a grid
step so that it covers the same territory as the noisy grid search
(Appendix E.3).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.hpo.base import HPOptimizer, Trial
from repro.hpo.space import SearchSpace

__all__ = ["RandomSearch"]


class RandomSearch(HPOptimizer):
    """Uniform random sampling of configurations.

    Parameters
    ----------
    widen_fraction:
        Fraction of one grid step by which the bounds are widened before
        sampling, mirroring the ±Δ/2 widening of Appendix E.3.  The default
        of 0 keeps the nominal space.
    grid_points:
        Number of grid points per dimension used to define the step Δ when
        ``widen_fraction`` is non-zero.
    """

    name = "random_search"

    def __init__(self, widen_fraction: float = 0.0, grid_points: int = 10) -> None:
        if widen_fraction < 0:
            raise ValueError("widen_fraction must be non-negative")
        self.widen_fraction = float(widen_fraction)
        self.grid_points = int(grid_points)

    def prepare(
        self, space: SearchSpace, rng: np.random.Generator, budget: int
    ) -> SearchSpace:
        if self.widen_fraction == 0:
            return space
        from repro.hpo.space import LogUniformDimension, UniformDimension

        widened = {}
        for name, dim in space.dimensions.items():
            if isinstance(dim, LogUniformDimension):
                step = (np.log(dim.high) - np.log(dim.low)) / max(1, self.grid_points - 1)
                factor = float(np.exp(self.widen_fraction * step))
                widened[name] = LogUniformDimension(dim.low / factor, dim.high * factor)
            elif isinstance(dim, UniformDimension):
                step = (dim.high - dim.low) / max(1, self.grid_points - 1)
                pad = self.widen_fraction * step
                widened[name] = UniformDimension(dim.low - pad, dim.high + pad)
            else:
                widened[name] = dim
        return SearchSpace(widened)

    def propose(
        self,
        space: SearchSpace,
        history: List[Trial],
        rng: np.random.Generator,
        budget: int,
    ) -> Dict[str, float]:
        return space.sample(rng)

    def propose_batch(
        self,
        space: SearchSpace,
        history: List[Trial],
        rng: np.random.Generator,
        budget: int,
    ) -> List[Dict[str, float]]:
        """The whole remaining budget: no draw depends on a trial value."""
        return [space.sample(rng) for _ in range(budget - len(history))]
