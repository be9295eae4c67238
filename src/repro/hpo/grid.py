"""Grid search and its randomized variant, the noisy grid search.

Grid search itself is deterministic, but the *placement* of the grid (does
the learning-rate axis step by powers of 2, of 10, or by 0.25?) is an
arbitrary experimenter choice.  Appendix E.2 models this arbitrariness by
perturbing the grid bounds by up to half a grid step, which keeps the same
expected grid but yields a distribution over "equally reasonable" grids —
the variance of that distribution is what Figure 1 reports for grid search.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.hpo.base import HPOptimizer, Trial
from repro.hpo.space import SearchSpace
from repro.utils.validation import check_positive_int

__all__ = ["GridSearch", "NoisyGridSearch"]


class GridSearch(HPOptimizer):
    """Deterministic exhaustive evaluation of a Cartesian grid.

    The number of points per dimension is derived from the budget so that
    the full grid fits within it: ``n = floor(budget ** (1/d))`` with a
    minimum of 2.  Remaining budget re-evaluates grid points in order (they
    are deterministic, so in a noiseless setting this is a no-op cost).
    """

    name = "grid_search"

    def __init__(self, points_per_dimension: int | None = None) -> None:
        if points_per_dimension is not None:
            check_positive_int(points_per_dimension, "points_per_dimension", minimum=2)
        self.points_per_dimension = points_per_dimension
        self._grid: List[Dict[str, float]] | None = None

    def _points(self, space: SearchSpace, budget: int) -> int:
        if self.points_per_dimension is not None:
            return self.points_per_dimension
        return max(2, int(np.floor(budget ** (1.0 / len(space)))))

    def prepare(
        self, space: SearchSpace, rng: np.random.Generator, budget: int
    ) -> SearchSpace:
        self._grid = space.grid(self._points(space, budget))
        return space

    def propose(
        self,
        space: SearchSpace,
        history: List[Trial],
        rng: np.random.Generator,
        budget: int,
    ) -> Dict[str, float]:
        return self._point(space, budget, len(history))

    def propose_batch(
        self,
        space: SearchSpace,
        history: List[Trial],
        rng: np.random.Generator,
        budget: int,
    ) -> List[Dict[str, float]]:
        """The whole remaining budget, in grid order."""
        return [
            self._point(space, budget, index) for index in range(len(history), budget)
        ]

    def _point(self, space: SearchSpace, budget: int, index: int) -> Dict[str, float]:
        """The configuration of trial ``index``."""
        if self._grid is None:
            self._grid = space.grid(self._points(space, budget))
        return dict(self._grid[index % len(self._grid)])


class NoisyGridSearch(GridSearch):
    """Grid search over a randomly shifted grid (Appendix E.2).

    Before laying out the grid, every continuous dimension's bounds are
    shifted by a uniform offset in ``[-Δ/2, +Δ/2]`` where Δ is the grid
    step of that dimension.  In expectation the noisy grid coincides with
    the nominal grid, but individual realizations differ — providing a
    variance estimate for the arbitrary choice of grid.
    """

    name = "noisy_grid_search"

    def prepare(
        self, space: SearchSpace, rng: np.random.Generator, budget: int
    ) -> SearchSpace:
        points = self._points(space, budget)
        # relative_scale=0.5/(points-1) shifts bounds by at most half a step.
        shifted = space.perturbed(rng, relative_scale=0.5 / max(1, points - 1))
        self._grid = shifted.grid(points)
        return shifted
