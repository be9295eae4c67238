"""Proposal batches and rounds: HOpt trials proposed together are fitted
in one stack, and so are the rounds of every HOpt run in one task.

Every optimizer proposes, in one call, the configurations it can choose
without a new trial value.  Batching must change nothing an HOpt run
returns: the same configurations, drawn in the same order, and the same
values as a loop that proposes one trial at a time with the real history.
``BenchmarkProcess.measure_many_with_hpo`` fits one proposal round of all
its runs in one ``fit_many`` call, each trial's value exactly what a fit
of its configuration alone gives, and each run's winning trial is its
final model.  The reference for a whole measurement is the unbatched
path: trials one at a time, each fitted alone, then ``measure`` refitting
the best configuration.
"""

import copy
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.benchmark import BenchmarkProcess
from repro.engine.executor import ParallelExecutor
from repro.engine.runner import StudyRunner, WorkItem
from repro.hpo.base import BatchObjective, HPOptimizer, HPOResult, Trial
from repro.hpo.bayesopt import BayesianOptimization
from repro.hpo.grid import GridSearch, NoisyGridSearch
from repro.hpo.random_search import RandomSearch
from repro.hpo.space import LogUniformDimension, SearchSpace, UniformDimension
from repro.pipelines.base import FitOutcome, Pipeline, fit_and_score
from repro.pipelines.linear import RidgeRegressionPipeline
from repro.pipelines.mlp import MLPClassifierPipeline
from repro.utils.rng import SeedScope
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


def _unbatched_measurement(process, seeds):
    """The reference path: HOpt one trial at a time, each trial fitted
    alone, then ``measure`` refits the best configuration."""
    train, valid, _ = process.split(seeds)
    optimizer = copy.deepcopy(process.hpo_algorithm)
    rng = seeds.rng_for("hopt")
    budget = process.hpo_budget
    space = optimizer.prepare(process.pipeline.search_space(), rng, budget)
    trials = []
    for index in range(budget):
        config = optimizer.propose(space, trials, rng, budget)
        outcome = fit_and_score(
            process.pipeline, train, valid, config, seeds, valid=valid
        )
        trials.append(Trial(dict(config), 1.0 - float(outcome.valid_score), index))
    result = HPOResult(trials)
    return process.measure(seeds, result.best_config), result


def _assert_equals_reference(got, seeds, reference, budget):
    final, result = reference
    assert got.test_score == final.test_score
    assert got.valid_score == final.valid_score
    assert got.train_score == final.train_score
    assert got.hparams == final.hparams
    assert got.hpo_result.trials == result.trials
    assert got.seeds == seeds
    assert got.n_fits == budget + 1


#: ``(id, optimizer factory, budget)`` of the measurement matrix; the
#: Bayesian run goes through two adaptive rounds after its initial draws.
MEASURE_OPTIMIZERS = [
    ("random", RandomSearch, 3),
    ("grid", GridSearch, 4),
    ("noisy-grid", NoisyGridSearch, 4),
    (
        "bayesopt-adaptive",
        lambda: BayesianOptimization(n_initial_points=2, n_candidates=32),
        4,
    ),
]


def _hpo_process(factory, budget):
    return BenchmarkProcess(
        _dataset_for("classification"),
        MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=2),
        hpo_algorithm=factory(),
        hpo_budget=budget,
    )


def _hpo_items(label):
    """Five HOpt items: three with whole fresh bundles (IdealEst) and two
    that share every seed but ``hopt`` (the HOpt variance study)."""
    scope = SeedScope.from_state(19).child("items", label)
    items = [
        WorkItem.from_scope(scope.child("k", i), with_hpo=True) for i in range(3)
    ]
    base = scope.child("base").bundle()
    items += [
        WorkItem(
            seeds=base.with_seeds(hopt=scope.child("rep", i).seed()), with_hpo=True
        )
        for i in range(2)
    ]
    return items


class TestMeasureManyWithHpo:
    @pytest.fixture(
        scope="class", params=MEASURE_OPTIMIZERS, ids=[o[0] for o in MEASURE_OPTIMIZERS]
    )
    def case(self, request):
        name, factory, budget = request.param
        process = _hpo_process(factory, budget)
        items = _hpo_items(name)
        reference = [_unbatched_measurement(process, item.seeds) for item in items]
        return process, items, reference

    @pytest.mark.parametrize(
        "backend,n_jobs", [("serial", 1), ("thread", 2), ("process", 2)]
    )
    def test_runner_matrix_equals_unbatched_reference(self, case, backend, n_jobs):
        process, items, reference = case
        for batch_size in (1, 4, 16):
            executor = ParallelExecutor(n_jobs, backend=backend, batch_size=batch_size)
            try:
                got = StudyRunner(process, executor=executor).run(items)
            finally:
                executor.close()
            for measurement, item, expected in zip(got, items, reference):
                _assert_equals_reference(
                    measurement, item.seeds, expected, process.hpo_budget
                )

    def test_single_entry_points_are_batches_of_one(self, case):
        process, items, reference = case
        seeds = items[0].seeds
        _assert_equals_reference(
            process.measure_with_hpo(seeds), seeds, reference[0], process.hpo_budget
        )
        assert process.run_hpo(seeds).trials == reference[0][1].trials

    def test_threads_share_no_search_state(self):
        # The noisy grid lays its grid out in ``prepare``: runs sharing one
        # optimizer instance would read each other's grids.
        process = BenchmarkProcess(
            _dataset_for("classification"),
            _PoisonedPipeline(poisoned=None, budget=4),
            hpo_algorithm=NoisyGridSearch(),
            hpo_budget=4,
        )
        seeds = [SeedScope.from_state(9).child("run", i).bundle() for i in range(8)]
        expected = [process.run_hpo(bundle).trials for bundle in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(20):
                    got = pool.map(
                        lambda bundle: process.run_hpo(bundle).trials, seeds, timeout=60
                    )
                    assert list(got) == expected
        finally:
            sys.setswitchinterval(interval)


def _count_fit_many(monkeypatch):
    """Record the item count of every ``fit_many`` call of the MLP."""
    calls = []
    fit_many = MLPClassifierPipeline.fit_many

    def counting(self, trains, *args, **kwargs):
        calls.append(len(trains))
        return fit_many(self, trains, *args, **kwargs)

    monkeypatch.setattr(MLPClassifierPipeline, "fit_many", counting)
    return calls


class TestRoundsStackAcrossRuns:
    def test_task_of_random_searches_is_one_fit_call(self, monkeypatch):
        # Four runs of budget 3 propose their whole budgets in round one;
        # with a refit per run this task made 8 calls of 16 items.
        process = _hpo_process(RandomSearch, 3)
        items = _hpo_items("one-call")[:4]
        calls = _count_fit_many(monkeypatch)
        StudyRunner(process, batch_size=4).run(items)
        assert calls == [12]

    def test_adaptive_rounds_of_every_run_stack(self, monkeypatch):
        process = _hpo_process(
            lambda: BayesianOptimization(n_initial_points=2, n_candidates=32), 4
        )
        items = _hpo_items("rounds")[:3]
        calls = _count_fit_many(monkeypatch)
        process.measure_many_with_hpo([item.seeds for item in items])
        # The initial draws of all three runs, then one adaptive step each.
        assert calls == [6, 3, 3]


class _Scripted(HPOptimizer):
    """Proposes ``x = 0, 1, ..., budget - 1``, all in one batch."""

    def propose(self, space, history, rng, budget):
        return {"x": float(len(history))}

    def propose_batch(self, space, history, rng, budget):
        return [{"x": float(i)} for i in range(len(history), budget)]


class _PoisonedPipeline(Pipeline):
    """Validation score ``x / 10`` (so the largest ``x`` wins), except that
    the run whose ``hopt`` seed is ``poisoned`` diverges (NaN) at its
    first and its best configuration.  The model is ``x``."""

    name = "poisoned"

    def __init__(self, poisoned, budget):
        self.poisoned = poisoned
        self.nan_at = {0.0, float(budget - 1)}

    def default_hparams(self):
        return {"x": 0.0}

    def search_space(self):
        return SearchSpace({"x": UniformDimension(0.0, 1.0)})

    def fit(self, train, hparams, seeds, valid=None):
        x = float(hparams["x"])
        diverged = seeds.seed_for("hopt") == self.poisoned and x in self.nan_at
        return FitOutcome(
            model=x,
            train_score=x,
            valid_score=float("nan") if diverged else x / 10.0,
            hparams=dict(hparams),
            seeds=seeds,
        )

    def evaluate(self, model, dataset):
        return float(model)


class TestDivergedTrials:
    def test_nan_trial_neither_wins_nor_moves_a_sibling_winner(self):
        budget = 4
        scope = SeedScope.from_state(3)
        seeds = [scope.child("run", i).bundle() for i in range(2)]
        poisoned = seeds[0].seed_for("hopt")
        process = BenchmarkProcess(
            _dataset_for("classification"),
            _PoisonedPipeline(poisoned, budget),
            hpo_algorithm=_Scripted(),
            hpo_budget=budget,
        )
        sick, healthy = process.measure_many_with_hpo(seeds)
        assert [np.isnan(t.value) for t in sick.hpo_result.trials] == [
            True, False, False, True
        ]
        # The poisoned run's best number wins, not its NaNs.
        assert sick.hparams == {"x": 2.0} and sick.test_score == 2.0
        assert sick.hpo_result.best_trial.index == 2
        # The sibling in the same rounds keeps the winner it has alone.
        (alone,) = process.measure_many_with_hpo(seeds[1:])
        assert healthy.hparams == alone.hparams == {"x": 3.0}
        assert healthy.test_score == alone.test_score == 3.0
        assert healthy.valid_score == alone.valid_score
