"""Tests for vectorized measurement batches (multi-seed fit kernels).

The batching contract is *bitwise identity*: grouping B compatible work
items (same pipeline, same hyperparameters, different seeds) into one
vectorized multi-seed fit must produce, per item, exactly the floats a
fit of that item alone (a batch of one) produces — scores, training
histories, and every weight tensor.  That contract is pinned at four
levels:

* **kernels** — batched softmax / cross-entropy / mse and the stacked
  :class:`BatchedNetwork` forward/backward agree bitwise with the
  single-network :mod:`repro.pipelines.nn` implementations per stacked
  slice;
* **pipelines** — ``fit_many`` on every vectorizing pipeline equals N
  independent ``fit`` calls (weights, histories, scores), inputs of mixed
  shapes stack per shape group, and ``fit`` itself matches outputs
  recorded from an independent implementation;
* **engine** — ``StudyRunner`` with any ``batch_size`` and any executor
  backend returns measurements bitwise-equal to the unbatched serial
  runner, with progress ticks still firing once per *measurement*;
* **studies** — every registered study at smoke scale produces identical
  rows at ``batch_size`` 1/4/16, with the workhorse variance study
  additionally swept over every backend.

Shared-memory dataset arena lifecycle (publish-once, attach-cached,
crash/cancel cleanup) is covered at the bottom.
"""

import gc
import json
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.api import Session, StudySpec, get_study, list_studies
from repro.core.benchmark import BenchmarkProcess
from repro.data.dataset import Dataset
from repro.data.synthetic import make_gaussian_blobs
from repro.engine.cache import FileStore, MeasurementCache
from repro.engine.executor import CancellableExecutor, ParallelExecutor
from repro.engine.runner import StudyRunner, WorkItem
from repro.engine.shm import DatasetHandle, SharedDatasetArena, shared_arena
from repro.pipelines.base import Pipeline, FitOutcome
from repro.pipelines.linear import LogisticRegressionPipeline, RidgeRegressionPipeline
from repro.pipelines.mlp import MLPClassifierPipeline, MLPRegressorPipeline
from repro.pipelines.nn.batched import (
    BatchedNetwork,
    batched_cross_entropy_loss,
    batched_mse_loss,
    batched_softmax,
)
from repro.pipelines.nn.losses import cross_entropy_loss, mse_loss, softmax
from repro.pipelines.nn.network import MLPNetwork
from repro.utils.rng import SeedScope


def _blobs(seed=0, n=120, features=8, classes=3):
    return make_gaussian_blobs(
        n_samples=n, n_features=features, n_classes=classes, random_state=seed
    )


def _bundles(label, count, root=11):
    scope = SeedScope.from_state(root)
    return [scope.child(label, i).bundle() for i in range(count)]


def _networks(count, sizes=(6, 5, 3), dropout=0.0, seed=3):
    rng = np.random.default_rng(seed)
    return [
        MLPNetwork(
            list(sizes),
            task_type="classification",
            dropout_rate=dropout,
            init_rng=np.random.default_rng(rng.integers(2**31)),
        )
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Kernels: stacked ops are per-slice bitwise equal to the serial ops
# ----------------------------------------------------------------------
class TestBatchedKernels:
    def test_softmax_matches_serial_per_slice(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 17, 5)) * 3.0
        stacked = batched_softmax(logits)
        for index in range(4):
            np.testing.assert_array_equal(stacked[index], softmax(logits[index]))

    def test_cross_entropy_matches_serial_per_slice(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 23, 4))
        labels = np.stack([rng.integers(0, 4, size=23) for _ in range(3)])
        losses, gradients = batched_cross_entropy_loss(logits, labels)
        for index in range(3):
            loss, gradient = cross_entropy_loss(logits[index], labels[index])
            assert losses[index] == loss
            np.testing.assert_array_equal(gradients[index], gradient)

    def test_mse_matches_serial_per_slice(self):
        rng = np.random.default_rng(2)
        predictions = rng.normal(size=(5, 19, 1))
        targets = rng.normal(size=(5, 19, 1))
        losses, gradients = batched_mse_loss(predictions, targets)
        for index in range(5):
            loss, gradient = mse_loss(predictions[index], targets[index])
            assert losses[index] == loss
            np.testing.assert_array_equal(gradients[index], gradient)

    def test_forward_and_gradients_match_serial_networks(self):
        networks = _networks(4)
        batched = BatchedNetwork(networks)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 6))
        y = rng.integers(0, 3, size=30)
        X_stack = np.stack([X] * 4)
        y_stack = np.stack([y] * 4)
        losses, gradients = batched.loss_and_gradients(X_stack, y_stack)
        for index, network in enumerate(networks):
            loss, grads = network.loss_and_gradients(X, y)
            assert losses[index] == loss
            for stacked, serial in zip(gradients, grads):
                np.testing.assert_array_equal(stacked[index], serial)

    def test_unstack_round_trips_parameters(self):
        networks = _networks(3)
        original = [[w.copy() for w in net.weights] for net in networks]
        batched = BatchedNetwork(networks)
        batched.unstack()
        for net, weights in zip(networks, original):
            for got, expected in zip(net.weights, weights):
                np.testing.assert_array_equal(got, expected)

    def test_batched_network_rejects_heterogeneous_stacks(self):
        a = _networks(1, sizes=(6, 5, 3))[0]
        b = _networks(1, sizes=(6, 4, 3))[0]
        with pytest.raises(ValueError):
            BatchedNetwork([a, b])


# ----------------------------------------------------------------------
# Pipelines: fit_many == N x fit, bitwise; mixed shapes stack per group
# ----------------------------------------------------------------------
PIPELINES = [
    pytest.param(
        MLPClassifierPipeline(hidden_sizes=(12,), n_epochs=3), "classification",
        id="mlp-classifier",
    ),
    pytest.param(
        MLPClassifierPipeline(
            hidden_sizes=(10, 7),
            n_epochs=3,
            dropout_rate=0.3,
            numerical_noise_scale=1e-4,
            optimizer="adam",
            activation="tanh",
        ),
        "classification",
        id="mlp-dropout-noise-adam",
    ),
    pytest.param(
        MLPRegressorPipeline(hidden_sizes=(9,), n_epochs=3), "regression",
        id="mlp-regressor",
    ),
    pytest.param(LogisticRegressionPipeline(n_epochs=3), "classification", id="logistic"),
    pytest.param(RidgeRegressionPipeline(n_epochs=3), "regression", id="ridge"),
]


def _dataset_for(task_type, seed=0):
    dataset = _blobs(seed)
    if task_type == "regression":
        return Dataset(
            dataset.X, dataset.X[:, 0] * 2.0 + 0.5, name="reg", task_type="regression"
        )
    return dataset


def _assert_outcomes_bitwise(batched, serial):
    assert len(batched) == len(serial)
    for got, expected in zip(batched, serial):
        assert got.train_score == expected.train_score
        assert got.valid_score == expected.valid_score
        assert got.hparams == expected.hparams
        assert got.history == expected.history
        for w_got, w_expected in zip(got.model.weights, expected.model.weights):
            np.testing.assert_array_equal(w_got, w_expected)
        for b_got, b_expected in zip(got.model.biases, expected.model.biases):
            np.testing.assert_array_equal(b_got, b_expected)


def _train_valid(task_type):
    dataset = _dataset_for(task_type)
    train = Dataset(dataset.X[:90], dataset.y[:90], name="t", task_type=task_type)
    valid = Dataset(dataset.X[90:], dataset.y[90:], name="v", task_type=task_type)
    return train, valid


class TestFitManyParity:
    @pytest.mark.parametrize("pipeline,task_type", PIPELINES)
    def test_fit_many_bitwise_equals_serial_fits(self, pipeline, task_type):
        train, valid = _train_valid(task_type)
        bundles = _bundles("fit", 4)
        hparams = pipeline.default_hparams()
        serial = [
            pipeline.fit(train, hparams, seeds, valid=valid) for seeds in bundles
        ]
        batched = pipeline.fit_many(
            [train] * 4, hparams, bundles, valids=[valid] * 4
        )
        _assert_outcomes_bitwise(batched, serial)

    def test_mixed_shapes_stack_per_shape_group(self, monkeypatch):
        import repro.pipelines.mlp as mlp

        pipeline = MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=2)
        dataset = _blobs()
        train_a = Dataset(dataset.X[:60], dataset.y[:60], name="a")
        train_b = Dataset(dataset.X[:80], dataset.y[:80], name="b")
        # Same shape as train_a, but without the top class: a narrower output.
        two_classes = dataset.y < 2
        train_narrow = Dataset(
            dataset.X[two_classes][:60], dataset.y[two_classes][:60], name="n"
        )
        trains = [train_a, train_b, train_narrow, train_a]
        bundles = _bundles("groups", 4)
        hparams = pipeline.default_hparams()
        singles = [pipeline.fit(t, hparams, s) for t, s in zip(trains, bundles)]

        kernel_batches = []
        kernel = mlp.train_network_many

        def counting_kernel(batched, *args):
            kernel_batches.append(batched.n_items)
            return kernel(batched, *args)

        monkeypatch.setattr(mlp, "train_network_many", counting_kernel)
        batched = pipeline.fit_many(trains, hparams, bundles)
        _assert_outcomes_bitwise(batched, singles)
        assert kernel_batches == [2, 1, 1]

    def test_misaligned_batch_inputs_raise(self):
        from repro.pipelines.base import fit_and_score_many
        from repro.pipelines.ensemble import EnsembleMLPRegressorPipeline

        train, valid = _train_valid("classification")
        bundles = _bundles("align", 3)
        pipeline = MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=1)
        hparams = pipeline.default_hparams()
        with pytest.raises(ValueError, match="trains=3, seeds_list=3, valids=1"):
            pipeline.fit_many([train] * 3, hparams, bundles, valids=[valid])
        with pytest.raises(ValueError, match="trains=3, seeds_list=2"):
            pipeline.fit_many([train] * 3, hparams, bundles[:2])
        with pytest.raises(ValueError, match="tests=1"):
            fit_and_score_many(pipeline, [train] * 3, [valid], hparams, bundles)
        ensemble = EnsembleMLPRegressorPipeline(n_members=1)
        with pytest.raises(ValueError, match="trains=3, seeds_list=3, valids=1"):
            ensemble.fit_many([train] * 3, {}, bundles, valids=[valid])

    def test_default_fit_many_is_sequential_for_plain_pipelines(self):
        class Stub(Pipeline):
            name = "stub"
            metric_name = "accuracy"
            task_type = "classification"

            def default_hparams(self):
                return {}

            def search_space(self):
                raise NotImplementedError

            def fit(self, train, hparams, seeds, valid=None):
                return FitOutcome(
                    model=None,
                    train_score=float(seeds.base_seed % 97),
                    valid_score=None,
                    hparams=dict(hparams),
                    seeds=seeds,
                )

            def evaluate(self, model, dataset):
                return 0.5

        pipeline = Stub()
        bundles = _bundles("stub", 3)
        outcomes = pipeline.fit_many([None] * 3, {}, bundles)
        assert [o.train_score for o in outcomes] == [
            float(s.base_seed % 97) for s in bundles
        ]

    def test_measure_many_bitwise_equals_measure(self):
        pipeline = MLPClassifierPipeline(hidden_sizes=(10,), n_epochs=3)
        process = BenchmarkProcess(_blobs(), pipeline)
        bundles = _bundles("measure", 5)
        serial = [process.measure(seeds) for seeds in bundles]
        batched = process.measure_many(bundles)
        for got, expected in zip(batched, serial):
            assert got.test_score == expected.test_score
            assert got.valid_score == expected.valid_score
            assert got.train_score == expected.train_score
            assert got.hparams == expected.hparams


# ----------------------------------------------------------------------
# Pinned outputs: the training loop against recorded values
# ----------------------------------------------------------------------
def _augmented_toggled_mlp():
    from repro.data.augmentation import GaussianJitter

    return MLPClassifierPipeline(
        hidden_sizes=(8,),
        n_epochs=3,
        dropout_rate=0.2,
        augmentations=(GaussianJitter(0.05),),
    ).with_noise_layers("augment+dropout")


PINNED_PIPELINES = {
    **{param.id: param.values for param in PIPELINES},
    "mlp-augment-dropout-only": (_augmented_toggled_mlp(), "classification"),
}

#: One ``fit`` per config: ``(loss history, train score, valid score,
#: sum of each weight tensor)``.  Recorded from the per-item training loop
#: that predates the stacked kernel, so they check the loop independently
#: of ``fit_many``.  ``rtol=1e-9`` absorbs last-digit differences between
#: numpy/BLAS builds; a change in seed consumption order or in an update
#: formula moves them far more.
PINNED = {
    "logistic": (
        [0.914071722601331, 0.6731298482137267, 0.45534127907944144],
        0.8444444444444444,
        0.9,
        [-0.6516230576890827],
    ),
    "mlp-augment-dropout-only": (
        [1.2342985505676203, 1.1404019057858528, 0.9576279545052865],
        0.6888888888888889,
        0.7,
        [4.51663399015716, 3.0479130351824115],
    ),
    "mlp-classifier": (
        [1.3292607801683336, 1.062382767016346, 0.8091928050137224],
        0.7444444444444445,
        0.6333333333333333,
        [-2.504889259819898, 1.5081213781401535],
    ),
    "mlp-dropout-noise-adam": (
        [2.033613648531463, 2.255208486356111, 1.859786852703105],
        0.6444444444444445,
        0.7666666666666667,
        [17.337725658258897, -3.025250914830586, -7.6046176512991455],
    ),
    "mlp-regressor": (
        [2.2700085279849853, 1.1838956751491456, 0.385876227645056],
        0.9041030005630508,
        0.7877356127651793,
        [0.3369333358732223, -0.07340057519817672],
    ),
    "ridge": (
        [3.3612552951537467, 1.0461120222566553, 1.0385386449515106],
        0.7274627086658423,
        0.5893689377899477,
        [1.824896544065683],
    ),
}


class TestPinnedFitOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED_PIPELINES))
    def test_fit_matches_pinned_outputs(self, name):
        pipeline, task_type = PINNED_PIPELINES[name]
        train, valid = _train_valid(task_type)
        outcome = pipeline.fit(
            train, pipeline.default_hparams(), _bundles("pin", 1)[0], valid=valid
        )
        losses, train_score, valid_score, sums = PINNED[name]
        np.testing.assert_allclose(outcome.history["losses"], losses, rtol=1e-9)
        np.testing.assert_allclose(outcome.train_score, train_score, rtol=1e-9)
        np.testing.assert_allclose(outcome.valid_score, valid_score, rtol=1e-9)
        got = [float(weights.sum()) for weights in outcome.model.weights]
        np.testing.assert_allclose(got, sums, rtol=1e-9)


# ----------------------------------------------------------------------
# Engine: runner batching is invisible except for speed
# ----------------------------------------------------------------------
def _measurements_equal(a, b):
    return (
        a.test_score == b.test_score
        and a.valid_score == b.valid_score
        and a.train_score == b.train_score
        and a.hparams == b.hparams
    )


class TestRunnerBatching:
    @pytest.fixture(scope="class")
    def process(self):
        return BenchmarkProcess(
            _blobs(), MLPClassifierPipeline(hidden_sizes=(10,), n_epochs=3)
        )

    @pytest.fixture(scope="class")
    def items(self):
        scope = SeedScope.from_state(23)
        items = [WorkItem.from_scope(scope.child("rep", i)) for i in range(7)]
        items += [
            WorkItem(
                seeds=scope.child("alt", i).bundle(),
                hparams={"learning_rate": 0.02},
            )
            for i in range(4)
        ]
        return items

    @pytest.fixture(scope="class")
    def reference(self, process, items):
        return StudyRunner(process).run(items)

    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    @pytest.mark.parametrize(
        "backend,n_jobs", [("serial", 1), ("thread", 2), ("process", 2)]
    )
    def test_batched_matrix_bitwise(
        self, process, items, reference, batch_size, backend, n_jobs
    ):
        executor = ParallelExecutor(n_jobs, backend=backend, batch_size=batch_size)
        got = StudyRunner(process, executor=executor).run(items)
        assert all(_measurements_equal(a, b) for a, b in zip(reference, got))

    def test_ticks_fire_once_per_measurement(self, process, items, reference):
        ticks = []
        executor = CancellableExecutor(
            ParallelExecutor(1, backend="serial", batch_size=4),
            tick=lambda: ticks.append(1),
        )
        got = StudyRunner(process, executor=executor).run(items)
        assert all(_measurements_equal(a, b) for a, b in zip(reference, got))
        assert len(ticks) == len(items)

    def test_batched_results_commit_through_put_many(self, process, items, reference):
        class CountingCache(MeasurementCache):
            put_many_calls = 0
            put_calls = 0

            def put(self, key, measurement):
                CountingCache.put_calls += 1
                return super().put(key, measurement)

            def put_many(self, pairs):
                CountingCache.put_many_calls += 1
                return super().put_many(pairs)

        cache = CountingCache()
        runner = StudyRunner(
            process,
            executor=ParallelExecutor(1, backend="serial", batch_size=4),
            cache=cache,
        )
        got = runner.run(items)
        assert all(_measurements_equal(a, b) for a, b in zip(reference, got))
        assert CountingCache.put_many_calls == 1
        assert CountingCache.put_calls == 0
        # Replay: everything comes from the cache, bitwise.
        replayed = runner.run(items)
        assert all(_measurements_equal(a, b) for a, b in zip(reference, replayed))
        assert cache.hits >= len(items)

    def test_batched_hpo_items_equal_serial(self, process):
        scope = SeedScope.from_state(31)
        hpo_process = BenchmarkProcess(
            process.dataset, process.pipeline, hpo_budget=2
        )
        items = [
            WorkItem(seeds=scope.child("hpo", i).bundle(), with_hpo=True)
            for i in range(2)
        ]
        serial = StudyRunner(hpo_process).run(items)
        batched = StudyRunner(
            hpo_process,
            executor=ParallelExecutor(1, backend="serial", batch_size=8),
        ).run(items)
        assert all(_measurements_equal(a, b) for a, b in zip(serial, batched))

    def test_plan_batches_chunks_hpo_items_like_any_others(self, process):
        scope = SeedScope.from_state(43)
        items = [
            WorkItem(seeds=scope.child("hpo", i).bundle(), with_hpo=True)
            for i in range(5)
        ]
        tasks, positions = StudyRunner(process, batch_size=4)._plan_batches(items)
        assert [len(task) for task in tasks] == [4, 1]
        assert positions == [(0, 1, 2, 3), (4,)]

    def test_plan_batches_groups_by_hparams_and_chunks(self, process):
        scope = SeedScope.from_state(41)
        items = [WorkItem.from_scope(scope.child("a", i)) for i in range(5)]
        items += [
            WorkItem(
                seeds=scope.child("b", i).bundle(), hparams={"learning_rate": 0.1}
            )
            for i in range(3)
        ]
        runner = StudyRunner(process, batch_size=4)
        tasks, positions = runner._plan_batches(items)
        assert [len(task) for task in tasks] == [4, 1, 3]
        flat = [p for chunk in positions for p in chunk]
        assert sorted(flat) == list(range(len(items)))


# ----------------------------------------------------------------------
# Cache: batched write-through
# ----------------------------------------------------------------------
class TestPutMany:
    def test_write_many_persists_all_entries_with_one_gc_pass(self, tmp_path):
        from repro.core.benchmark import Measurement
        from repro.engine.cache import FileStore

        store = FileStore(str(tmp_path), max_entries=3)
        entries = [
            (f"{i:02d}" + "a" * 62, Measurement(test_score=float(i), valid_score=None, train_score=0.0))
            for i in range(5)
        ]
        sizes = store.write_many(entries)
        assert len(sizes) == 5 and all(size > 0 for size in sizes)
        # The batch landed whole, then one gc pass pruned back to budget.
        assert len(store.keys()) == 3
        # The last-written key survives the protecting gc pass.
        assert entries[-1][0] in store

    def test_put_many_counts_like_n_puts(self, tmp_path):
        from repro.core.benchmark import Measurement

        cache = MeasurementCache(max_entries=2)
        pairs = [
            ("k" * 63 + str(i), Measurement(test_score=float(i), valid_score=None, train_score=0.0))
            for i in range(4)
        ]
        evicted = cache.put_many(pairs)
        assert evicted == 2
        assert len(cache) == 2
        assert cache.get(pairs[-1][0]).test_score == 3.0

    @pytest.mark.parametrize("with_store", [True, False], ids=["store", "memory"])
    def test_put_many_pickles_each_entry_once(self, tmp_path, monkeypatch, with_store):
        """The memory budget sizes each entry from the bytes the store
        writes (or, without a store, from one pickle of its own)."""
        import pickle

        import repro.engine.cache as cache_module
        from repro.core.benchmark import Measurement

        pairs = [
            (f"{i:02d}" + "p" * 62, Measurement(test_score=float(i), valid_score=None, train_score=0.5))
            for i in range(10)
        ]
        cache = MeasurementCache(
            cache_dir=str(tmp_path) if with_store else None, max_bytes=1 << 20
        )
        calls = []
        dumps = pickle.dumps

        def counting_dumps(*args, **kwargs):
            calls.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr(cache_module.pickle, "dumps", counting_dumps)
        cache.put_many(pairs)
        monkeypatch.undo()
        assert len(calls) == 10
        sizes = [
            len(pickle.dumps(measurement, protocol=pickle.HIGHEST_PROTOCOL))
            for _, measurement in pairs
        ]
        assert cache.stats()["bytes"] == sum(sizes)
        if with_store:
            assert cache.store.total_bytes == sum(sizes)

    def test_store_hits_are_sized_without_pickling(self, tmp_path, monkeypatch):
        """A store hit is sized from the bytes the store read, so a fresh
        cache replaying a persisted store pickles nothing."""
        import pickle

        import repro.engine.cache as cache_module
        from repro.core.benchmark import Measurement

        pairs = [
            (f"{i:02d}" + "g" * 62, Measurement(test_score=float(i), valid_score=None, train_score=0.5))
            for i in range(10)
        ]
        MeasurementCache(cache_dir=str(tmp_path)).put_many(pairs)
        cache = MeasurementCache(cache_dir=str(tmp_path), max_bytes=1 << 20)
        calls = []
        dumps = pickle.dumps

        def counting_dumps(*args, **kwargs):
            calls.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr(cache_module.pickle, "dumps", counting_dumps)
        replayed = [cache.get(key) for key, _ in pairs]
        monkeypatch.undo()
        assert calls == []
        assert [m.test_score for m in replayed] == [m.test_score for _, m in pairs]
        assert cache.store_hits == 10
        assert cache.stats()["bytes"] == cache.store.total_bytes

    def test_store_hits_respect_the_memory_byte_budget(self, tmp_path):
        """The sizes a store read reports are the ones the ``max_bytes``
        budget evicts by: replaying more than fits keeps the most recent
        entries within budget."""
        from repro.core.benchmark import Measurement

        pairs = [
            (f"{i:02d}" + "b" * 62, Measurement(test_score=float(i), valid_score=None, train_score=0.5))
            for i in range(10)
        ]
        MeasurementCache(cache_dir=str(tmp_path)).put_many(pairs)
        sizes = [FileStore(str(tmp_path)).read(key)[1] for key, _ in pairs]
        budget = sum(sizes[-3:])
        assert budget < sum(sizes) and max(sizes) <= budget
        cache = MeasurementCache(cache_dir=str(tmp_path), max_bytes=budget)
        for key, _ in pairs:
            cache.get(key)
        assert cache.store_hits == 10
        assert 0 < cache.total_bytes <= budget
        assert cache.evictions == 10 - len(cache)
        assert cache.total_bytes == sum(sizes[-len(cache):])
        # The most recent entries survive in memory: reading them again
        # touches the store no more.
        for key, _ in pairs[-len(cache):]:
            assert cache.get(key) is not None
        assert cache.store_hits == 10


# ----------------------------------------------------------------------
# Studies: every registered study is batch-invariant at smoke scale
# ----------------------------------------------------------------------
def _rows(result):
    return json.dumps(json.loads(result.to_json())["rows"], sort_keys=True)


def _run_study(name, *, batch_size, n_jobs=1, backend=None):
    info = get_study(name)
    spec = StudySpec(study=name, params=dict(info.smoke_params), random_state=7)
    with Session(
        n_jobs=n_jobs, backend=backend, batch_size=batch_size
    ) as session:
        return _rows(session.run(spec))


class TestStudyBatchInvariance:
    @pytest.mark.parametrize("name", list_studies())
    def test_registered_studies_identical_at_batch_4(self, name):
        assert _run_study(name, batch_size=1) == _run_study(name, batch_size=4)

    @pytest.mark.parametrize("batch_size", [4, 16])
    @pytest.mark.parametrize(
        "backend,n_jobs", [("serial", 1), ("thread", 2), ("process", 2)]
    )
    def test_variance_study_full_grid(self, batch_size, backend, n_jobs):
        reference = _run_study("variance", batch_size=1)
        got = _run_study(
            "variance", batch_size=batch_size, n_jobs=n_jobs, backend=backend
        )
        assert got == reference


# ----------------------------------------------------------------------
# Shared-memory dataset arena
# ----------------------------------------------------------------------
class TestSharedDatasetArena:
    def test_publish_is_memoized_and_handle_materializes(self):
        arena = SharedDatasetArena()
        dataset = _blobs(seed=5)
        try:
            handle = arena.publish(dataset)
            assert arena.publish(dataset) is handle
            rebuilt = handle.materialize()
            np.testing.assert_array_equal(rebuilt.X, dataset.X)
            np.testing.assert_array_equal(rebuilt.y, dataset.y)
            assert rebuilt.name == dataset.name
            assert rebuilt.task_type == dataset.task_type
            # The content token rides the handle: no re-hash on attach.
            assert getattr(rebuilt, "_repro_content_token") == handle.token
        finally:
            arena.close()

    def test_close_unlinks_segments(self):
        arena = SharedDatasetArena()
        dataset = _blobs(seed=6)
        handle = arena.publish(dataset)
        arena.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.x_name)
        # close() is idempotent.
        arena.close()

    def test_dataset_garbage_collection_releases_segments(self):
        arena = SharedDatasetArena()
        dataset = _blobs(seed=7)
        handle = arena.publish(dataset)
        del dataset
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.x_name)
        assert len(arena) == 0

    def test_interpreter_crash_path_releases_segments(self, tmp_path):
        # A publisher that exits without close() (the crash/cancel path)
        # must not leak segments: weakref.finalize fires at exit.
        script = textwrap.dedent(
            """
            from repro.data.synthetic import make_gaussian_blobs
            from repro.engine.shm import shared_arena

            dataset = make_gaussian_blobs(
                n_samples=50, n_features=4, n_classes=2, random_state=0
            )
            handle = shared_arena().publish(dataset)
            print(handle.x_name, handle.y_name)
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        x_name, y_name = result.stdout.split()
        for name in (x_name, y_name):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_cancel_mid_run_leaves_arena_consistent(self):
        import threading

        from repro.engine.executor import StudyCancelled

        process = BenchmarkProcess(
            _blobs(seed=8), MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=2)
        )
        cancel = threading.Event()
        cancel.set()
        executor = CancellableExecutor(
            ParallelExecutor(2, backend="process", batch_size=4), cancel
        )
        runner = StudyRunner(process, executor=executor)
        scope = SeedScope.from_state(3)
        items = [WorkItem.from_scope(scope.child("c", i)) for i in range(4)]
        with pytest.raises(StudyCancelled):
            runner.run(items)
        # The published dataset is still usable for the next (uncancelled)
        # run and is released with the dataset, not leaked by the abort.
        arena = shared_arena()
        handle = arena.publish(process.dataset)
        assert handle.materialize().X.shape == process.dataset.X.shape


# ----------------------------------------------------------------------
# Executor: weighted liveness ticks
# ----------------------------------------------------------------------
class TestWeightedTicks:
    @pytest.mark.parametrize("backend,n_jobs", [("serial", 1), ("thread", 2), ("process", 2)])
    def test_tick_fires_weight_times_per_item(self, backend, n_jobs):
        executor = ParallelExecutor(n_jobs, backend=backend)
        ticks = []
        result = executor.map(
            _double, [1, 2, 3], tick=lambda: ticks.append(1), weights=[2, 3, 1]
        )
        assert result == [2, 4, 6]
        assert len(ticks) == 6

    def test_weights_must_align_with_items(self):
        executor = ParallelExecutor(1)
        with pytest.raises(ValueError):
            executor.map(_double, [1, 2], weights=[1])


def _double(x):
    return 2 * x
