"""Common interface and result containers for hyperparameter optimizers.

All optimizers minimize an objective ``objective(config) -> float`` (the
validation error / regret, matching the paper's Figure F.2 which tracks
error-rates) over a :class:`~repro.hpo.space.SearchSpace`, within a budget
of ``T`` trials.  Every stochastic choice is drawn from the generator the
caller provides, so the whole procedure is a deterministic function of its
seed — that seed *is* the :math:`\\xi_H` variance source.

**Proposal rounds.**  :meth:`HPOptimizer.propose_batch` returns every
configuration the optimizer can choose without seeing a new trial value,
and :func:`optimize_runs` drives any number of independent HOpt runs
(:class:`HPORun`) in rounds of such batches:

* :class:`~repro.hpo.random_search.RandomSearch`,
  :class:`~repro.hpo.grid.GridSearch` and
  :class:`~repro.hpo.grid.NoisyGridSearch` propose their whole remaining
  budget in one batch;
* :class:`~repro.hpo.bayesopt.BayesianOptimization` proposes its
  remaining ``n_initial_points`` random draws in one batch, then one
  configuration at a time (an adaptive step is a batch of one);
* any other optimizer proposes one configuration at a time through
  :meth:`HPOptimizer.propose`.

A batch draws from its run's generator in the order one-at-a-time
proposals would, and each run owns its optimizer copy, search space and
generator, so neither batching nor running beside other runs changes a
configuration as long as the objective does not draw from that
generator.  One round scores the batches of every unfinished run in one
call, which is how
:meth:`repro.core.benchmark.BenchmarkProcess.measure_many_with_hpo` fits
a round of all its runs in one stacked kernel pass.
:meth:`HPOptimizer.optimize` is the loop with one run: a plain objective
is called once per configuration, a :class:`BatchObjective` once per
batch.
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.hpo.space import SearchSpace
from repro.utils.validation import (
    check_aligned,
    check_positive_int,
    check_random_state,
)

__all__ = [
    "Trial",
    "HPOResult",
    "HPOptimizer",
    "BatchObjective",
    "HPORun",
    "optimize_runs",
    "trial_rank",
]


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


def trial_rank(value: float) -> Tuple[bool, float]:
    """Sort key of a trial value, smaller is better: the one definition
    of the best trial.

    A NaN value (a diverged trial) ranks below every number; NaNs tie.
    """
    return (True, 0.0) if math.isnan(value) else (False, value)


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
        return min(self.trials, key=lambda t: trial_rank(t.value))

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

        This is :func:`optimize_runs` with one :class:`HPORun`, so the
        trials run in proposal batches on a copy of this optimizer (see
        the module docstring).

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
        run = HPORun.start(self, space, budget=budget, random_state=random_state)
        evaluate = (
            objective.many
            if isinstance(objective, BatchObjective)
            else lambda configs: [objective(config) for config in configs]
        )
        optimize_runs(
            [run], lambda proposals: [evaluate(configs) for _, configs in proposals]
        )
        return run.result


@dataclass
class HPORun:
    """One HOpt run in progress.

    Attributes
    ----------
    optimizer:
        The run's own copy of the optimizer: optimizers may keep per-run
        state (grid search lays out its grid in ``prepare``), so runs of
        one optimizer never share it, in one thread or many.
    space:
        The search space as ``optimizer.prepare`` returned it.
    rng:
        The run's generator — its :math:`\\xi_H` source.
    budget:
        Number of trials ``T``.
    result:
        The trials run so far.
    """

    optimizer: HPOptimizer
    space: SearchSpace
    rng: np.random.Generator
    budget: int
    result: HPOResult = field(default_factory=HPOResult)

    @classmethod
    def start(
        cls,
        optimizer: HPOptimizer,
        space: SearchSpace,
        *,
        budget: int,
        random_state=None,
    ) -> "HPORun":
        """A run of a deep copy of ``optimizer``, its space prepared."""
        optimizer = copy.deepcopy(optimizer)
        budget = check_positive_int(budget, "budget")
        rng = check_random_state(random_state)
        return cls(optimizer, optimizer.prepare(space, rng, budget), rng, budget)


#: Scores one proposal round.  Called with one ``(run position,
#: configurations)`` pair per unfinished run, it returns one sequence of
#: values per pair, in order.
RoundObjective = Callable[
    [List[Tuple[int, List[Dict[str, float]]]]], Sequence[Sequence[float]]
]


def optimize_runs(runs: Sequence[HPORun], evaluate: RoundObjective) -> None:
    """Run every HOpt run to its budget, one proposal round at a time.

    Each round, every unfinished run proposes a batch
    (:meth:`HPOptimizer.propose_batch`, see the module docstring), one
    ``evaluate`` call scores the batches of all of them, and each value
    goes back to its run as a :class:`Trial`.  A run draws from its own
    generator exactly as it would alone, so its trials do not depend on
    the runs beside it.  An empty or oversized batch raises
    ``ValueError``.
    """
    while True:
        proposals = []
        for position, run in enumerate(runs):
            left = run.budget - run.result.n_trials
            if left == 0:
                continue
            configs = run.optimizer.propose_batch(
                run.space, run.result.trials, run.rng, run.budget
            )
            if not 0 < len(configs) <= left:
                raise ValueError(
                    f"{type(run.optimizer).__name__}.propose_batch returned "
                    f"{len(configs)} configurations with {left} trials left"
                )
            proposals.append((position, configs))
        if not proposals:
            return
        values = list(evaluate(proposals))
        check_aligned(proposals=proposals, values=values)
        for (position, configs), run_values in zip(proposals, values):
            run_values = list(run_values)
            check_aligned(configs=configs, values=run_values)
            trials = runs[position].result.trials
            for config, value in zip(configs, run_values):
                trials.append(
                    Trial(config=dict(config), value=float(value), index=len(trials))
                )
