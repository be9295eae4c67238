"""Proposal batches: HOpt trials proposed together are fitted in one stack.

Every optimizer proposes, in one call, the configurations it can choose
without a new trial value.  Batching must change nothing an HOpt run
returns: the same configurations, drawn in the same order, and the same
values as a loop that proposes one trial at a time with the real history.
``BenchmarkProcess.run_hpo`` fits each batch in one kernel pass, and each
trial's value is exactly what a fit of its configuration alone gives.
"""

import numpy as np
import pytest

from repro.core.benchmark import BenchmarkProcess
from repro.hpo.base import BatchObjective, HPOptimizer, Trial
from repro.hpo.bayesopt import BayesianOptimization
from repro.hpo.grid import GridSearch, NoisyGridSearch
from repro.hpo.random_search import RandomSearch
from repro.hpo.space import LogUniformDimension, SearchSpace, UniformDimension
from repro.pipelines.base import fit_and_score
from repro.pipelines.linear import RidgeRegressionPipeline
from repro.pipelines.mlp import MLPClassifierPipeline
from repro.utils.validation import check_random_state
from test_batched import _bundles, _dataset_for
from test_stacked_fits import _count_kernel_calls

#: ``(id, optimizer factory, budget, expected proposal-batch sizes)``.
OPTIMIZERS = [
    ("random", RandomSearch, 6, [6]),
    ("random-widened", lambda: RandomSearch(widen_fraction=0.5, grid_points=4), 5, [5]),
    ("grid", GridSearch, 7, [7]),
    ("noisy-grid", NoisyGridSearch, 7, [7]),
    (
        "bayesopt-budget-below-initial",
        lambda: BayesianOptimization(n_initial_points=5, n_candidates=32),
        3,
        [3],
    ),
    (
        "bayesopt-budget-above-initial",
        lambda: BayesianOptimization(n_initial_points=2, n_candidates=32),
        5,
        [2, 1, 1, 1],
    ),
]
IDS = [entry[0] for entry in OPTIMIZERS]


def _space():
    return SearchSpace(
        {
            "x": UniformDimension(-1.0, 1.0),
            "lr": LogUniformDimension(1e-3, 1e-1),
        }
    )


def _objective(config):
    return (config["x"] - 0.3) ** 2 + abs(np.log10(config["lr"]) + 2.0)


def _reference_trials(optimizer: HPOptimizer, space, budget, seed):
    """One trial at a time: ``propose`` with the real history, then score."""
    rng = check_random_state(seed)
    space = optimizer.prepare(space, rng, budget)
    trials = []
    for index in range(budget):
        config = optimizer.propose(space, trials, rng, budget)
        trials.append(Trial(dict(config), float(_objective(config)), index))
    return trials


class TestProposalBatches:
    @pytest.mark.parametrize("name,factory,budget,sizes", OPTIMIZERS, ids=IDS)
    def test_optimize_matches_one_at_a_time_reference(self, name, factory, budget, sizes):
        expected = _reference_trials(factory(), _space(), budget, seed=3)
        got = factory().optimize(_objective, _space(), budget=budget, random_state=3)
        assert got.trials == expected

    @pytest.mark.parametrize("name,factory,budget,sizes", OPTIMIZERS, ids=IDS)
    def test_batch_objective_sees_each_proposal_batch_whole(
        self, name, factory, budget, sizes
    ):
        seen = []

        def many(configs):
            seen.append(len(configs))
            return [_objective(config) for config in configs]

        got = factory().optimize(
            BatchObjective(many), _space(), budget=budget, random_state=3
        )
        assert seen == sizes
        assert got.trials == _reference_trials(factory(), _space(), budget, seed=3)

    def test_default_proposal_batch_is_one_configuration(self):
        class OneAtATime(HPOptimizer):
            def propose(self, space, history, rng, budget):
                return space.sample(rng)

        seen = []

        def many(configs):
            seen.append(len(configs))
            return [0.0] * len(configs)

        OneAtATime().optimize(BatchObjective(many), _space(), budget=3, random_state=0)
        assert seen == [1, 1, 1]

    def test_oversized_proposal_batch_rejected(self):
        class Greedy(RandomSearch):
            def propose_batch(self, space, history, rng, budget):
                return [space.sample(rng) for _ in range(budget + 1)]

        with pytest.raises(ValueError, match="propose_batch returned 4"):
            Greedy().optimize(_objective, _space(), budget=3, random_state=0)

    def test_batch_objective_called_on_one_config(self):
        objective = BatchObjective(lambda configs: [c["x"] * 2 for c in configs])
        assert objective({"x": 1.5}) == 3.0


#: ``(id, pipeline, task type)`` of the HOpt runs below.
HPO_PIPELINES = [
    ("mlp-sgd", MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=2), "classification"),
    (
        "mlp-adam-dropout",
        MLPClassifierPipeline(
            hidden_sizes=(8,), n_epochs=2, optimizer="adam", dropout_rate=0.2
        ),
        "classification",
    ),
    ("ridge", RidgeRegressionPipeline(n_epochs=2), "regression"),
]


class TestRunHpoStacksTrials:
    @pytest.mark.parametrize(
        "name,pipeline,task_type", HPO_PIPELINES, ids=[p[0] for p in HPO_PIPELINES]
    )
    @pytest.mark.parametrize("name_opt,factory,budget,sizes", OPTIMIZERS, ids=IDS)
    def test_trial_values_equal_single_fits(
        self, name, pipeline, task_type, name_opt, factory, budget, sizes, monkeypatch
    ):
        process = BenchmarkProcess(
            _dataset_for(task_type),
            pipeline,
            hpo_algorithm=factory(),
            hpo_budget=budget,
        )
        (seeds,) = _bundles(f"hpo-{name}-{name_opt}", 1)
        batches = _count_kernel_calls(monkeypatch)
        result = process.run_hpo(seeds)
        # One kernel pass per proposal batch (search-space values keep the
        # weight decay positive, so no batch splits).
        assert batches == sizes
        monkeypatch.undo()
        train, valid, _ = process.split(seeds)
        for trial in result.trials:
            outcome = fit_and_score(pipeline, train, valid, trial.config, seeds, valid=valid)
            assert trial.value == 1.0 - float(outcome.valid_score)
