"""Common interface and result containers for hyperparameter optimizers.

All optimizers minimize an objective ``objective(config) -> float`` (the
validation error / regret, matching the paper's Figure F.2 which tracks
error-rates) over a :class:`~repro.hpo.space.SearchSpace`, within a budget
of ``T`` trials.  Every stochastic choice is drawn from the generator the
caller provides, so the whole procedure is a deterministic function of its
seed — that seed *is* the :math:`\\xi_H` variance source.

**Proposal batches.**  :meth:`HPOptimizer.propose_batch` returns every
configuration the optimizer can choose without seeing a new trial value,
and :meth:`HPOptimizer.optimize` runs one loop over such batches:

* :class:`~repro.hpo.random_search.RandomSearch`,
  :class:`~repro.hpo.grid.GridSearch` and
  :class:`~repro.hpo.grid.NoisyGridSearch` propose their whole remaining
  budget in one batch;
* :class:`~repro.hpo.bayesopt.BayesianOptimization` proposes its
  remaining ``n_initial_points`` random draws in one batch, then one
  configuration at a time (an adaptive step is a batch of one);
* any other optimizer proposes one configuration at a time through
  :meth:`HPOptimizer.propose`.

A batch draws from the generator in the order one-at-a-time proposals
would, so batching changes no configuration as long as the objective does
not draw from that generator.  A plain objective is called once per
configuration; a :class:`BatchObjective` scores a whole batch in one call,
which is how :meth:`repro.core.benchmark.BenchmarkProcess.run_hpo` fits
all the trials of a batch in one stacked kernel pass.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Union

import numpy as np

from repro.hpo.space import SearchSpace
from repro.utils.validation import (
    check_aligned,
    check_positive_int,
    check_random_state,
)

__all__ = ["Trial", "HPOResult", "HPOptimizer", "BatchObjective"]


@dataclass(frozen=True)
class BatchObjective:
    """An objective that scores a whole proposal batch in one call.

    ``many(configs)`` returns one value per configuration, in order;
    calling the objective on one configuration is ``many([config])[0]``.
    """

    many: Callable[[List[Dict[str, float]]], Sequence[float]]

    def __call__(self, config: Dict[str, float]) -> float:
        return self.many([config])[0]


#: Type of the objective handed to optimizers: smaller is better.
Objective = Union[Callable[[Dict[str, float]], float], BatchObjective]


@dataclass(frozen=True)
class Trial:
    """One evaluated hyperparameter configuration."""

    config: Dict[str, float]
    value: float
    index: int


@dataclass
class HPOResult:
    """Outcome of a hyperparameter-optimization run.

    Attributes
    ----------
    trials:
        All evaluated trials in execution order.
    """

    trials: List[Trial] = field(default_factory=list)

    @property
    def best_trial(self) -> Trial:
        """Trial with the smallest objective value.

        A NaN value (a diverged trial) ranks below every number, and the
        earliest of equally good trials wins.
        """
        if not self.trials:
            raise ValueError("no trials were run")
        return min(
            self.trials,
            key=lambda t: (True, 0.0) if math.isnan(t.value) else (False, t.value),
        )

    @property
    def best_config(self) -> Dict[str, float]:
        """Configuration of the best trial."""
        return dict(self.best_trial.config)

    @property
    def best_value(self) -> float:
        """Objective value of the best trial."""
        return self.best_trial.value

    @property
    def n_trials(self) -> int:
        """Number of trials executed."""
        return len(self.trials)

    def optimization_curve(self) -> np.ndarray:
        """Best objective value found up to each trial (Figure F.2 curves).

        NaN values are skipped once a number has been seen.
        """
        values = np.array([t.value for t in self.trials], dtype=float)
        return np.fmin.accumulate(values)


class HPOptimizer(ABC):
    """Base class for hyperparameter optimizers."""

    #: Registry name of the algorithm.
    name: str = "hpoptimizer"

    @abstractmethod
    def propose(
        self,
        space: SearchSpace,
        history: List[Trial],
        rng: np.random.Generator,
        budget: int,
    ) -> Dict[str, float]:
        """Propose the next configuration to evaluate."""

    def propose_batch(
        self,
        space: SearchSpace,
        history: List[Trial],
        rng: np.random.Generator,
        budget: int,
    ) -> List[Dict[str, float]]:
        """Every configuration that can be chosen without a new trial value.

        Returns between one and ``budget - len(history)`` configurations,
        drawn from ``rng`` in the order successive :meth:`propose` calls
        would draw them.  The default proposes one.
        """
        return [self.propose(space, history, rng, budget)]

    def prepare(self, space: SearchSpace, rng: np.random.Generator, budget: int) -> SearchSpace:
        """Hook run once before optimization; may return a modified space."""
        return space

    def optimize(
        self,
        objective: Objective,
        space: SearchSpace,
        *,
        budget: int = 50,
        random_state=None,
    ) -> HPOResult:
        """Run the optimizer for ``budget`` trials and return all trials.

        Trials run in proposal batches (see the module docstring).

        Parameters
        ----------
        objective:
            Function mapping a configuration dict to a value to minimize,
            or a :class:`BatchObjective` that scores a batch in one call.
        space:
            Search space.
        budget:
            Number of trials ``T``.
        random_state:
            Seed or generator — the :math:`\\xi_H` source.
        """
        budget = check_positive_int(budget, "budget")
        rng = check_random_state(random_state)
        space = self.prepare(space, rng, budget)
        evaluate = (
            objective.many
            if isinstance(objective, BatchObjective)
            else lambda configs: [objective(config) for config in configs]
        )
        result = HPOResult()
        while result.n_trials < budget:
            configs = self.propose_batch(space, result.trials, rng, budget)
            if not 0 < len(configs) <= budget - result.n_trials:
                raise ValueError(
                    f"{type(self).__name__}.propose_batch returned {len(configs)} "
                    f"configurations with {budget - result.n_trials} trials left"
                )
            values = list(evaluate(configs))
            check_aligned(configs=configs, values=values)
            for config, value in zip(configs, values):
                index = result.n_trials
                result.trials.append(
                    Trial(config=dict(config), value=float(value), index=index)
                )
        return result
