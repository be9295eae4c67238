"""Stacked fits with per-item hyperparameters, and the lean training step.

``fit_many`` may take one hyperparameter mapping per item (the trials of
one HOpt run): the learning rate, weight decay, momentum and
learning-rate schedule then differ inside one stack, and every item must
still get bitwise the outcome of a fit of its own configuration alone.
The kernel tests pin the pieces of the leaner step that the whole-fit
parity tests cannot isolate: the one gradient buffer, inputs left
untouched, strided mini-batch slices, and array-valued optimizer
hyperparameters.
"""

import numpy as np
import pytest

from repro.pipelines.base import fit_and_score, fit_and_score_many
from repro.pipelines.mlp import MLPClassifierPipeline
from repro.pipelines.nn.batched import (
    BatchedNetwork,
    batched_cross_entropy_loss,
    one_hot,
)
from repro.pipelines.nn.optimizers import SGD, Adam
from test_batched import (
    PIPELINES,
    _assert_outcomes_bitwise,
    _bundles,
    _networks,
    _train_valid,
)


def _varied_hparams(pipeline, count):
    """One mapping per item, every tuned value differing across items; item
    1 has weight decay 0."""
    base = pipeline.default_hparams()
    items = []
    for index in range(count):
        item = dict(base)
        item["learning_rate"] = base["learning_rate"] * (1.0 + 0.37 * index)
        item["weight_decay"] = 0.0 if index == 1 else base["weight_decay"] * (1 + index)
        item["gamma"] = 0.9 + 0.02 * index
        if "momentum" in item:
            item["momentum"] = 0.5 + 0.1 * index
        if "init_scale" in item:
            item["init_scale"] = 0.5 + 0.25 * index
        items.append(item)
    return items


def _count_kernel_calls(monkeypatch):
    """Record the stack size of every training-kernel call."""
    import repro.pipelines.mlp as mlp

    batches = []
    kernel = mlp.train_network_many

    def counting_kernel(batched, *args):
        batches.append(batched.n_items)
        return kernel(batched, *args)

    monkeypatch.setattr(mlp, "train_network_many", counting_kernel)
    return batches


class TestPerItemHparams:
    @pytest.mark.parametrize("pipeline,task_type", PIPELINES)
    def test_fit_many_per_item_bitwise_equals_single_fits(
        self, pipeline, task_type, monkeypatch
    ):
        train, valid = _train_valid(task_type)
        bundles = _bundles("items", 4)
        hparams = _varied_hparams(pipeline, 4)
        singles = [
            pipeline.fit(train, item, seeds, valid=valid)
            for item, seeds in zip(hparams, bundles)
        ]
        batches = _count_kernel_calls(monkeypatch)
        stacked = pipeline.fit_many([train] * 4, hparams, bundles, valids=[valid] * 4)
        _assert_outcomes_bitwise(stacked, singles)
        # The weight-decay-free item trains in a stack of its own.
        assert batches == [3, 1]
        for outcome, item in zip(stacked, hparams):
            assert outcome.history["learning_rates"] == [
                item["learning_rate"] * item["gamma"] ** epoch
                for epoch in range(pipeline.n_epochs)
            ]

    def test_items_sharing_one_seed_bundle_stack_like_hpo_trials(self, monkeypatch):
        pipeline = MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=2, dropout_rate=0.2)
        train, valid = _train_valid("classification")
        (seeds,) = _bundles("trials", 1)
        hparams = [dict(item, weight_decay=1e-3) for item in _varied_hparams(pipeline, 3)]
        singles = [pipeline.fit(train, item, seeds, valid=valid) for item in hparams]
        batches = _count_kernel_calls(monkeypatch)
        stacked = pipeline.fit_many([train] * 3, hparams, [seeds] * 3, valids=[valid] * 3)
        _assert_outcomes_bitwise(stacked, singles)
        assert batches == [3]

    def test_dropout_rate_splits_stacks(self, monkeypatch):
        pipeline = MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=2, dropout_rate=0.2)
        train, _ = _train_valid("classification")
        bundles = _bundles("dropout", 3)
        hparams = [
            dict(pipeline.default_hparams(), dropout_rate=rate) for rate in (0.2, 0.4, 0.2)
        ]
        singles = [pipeline.fit(train, item, s) for item, s in zip(hparams, bundles)]
        batches = _count_kernel_calls(monkeypatch)
        stacked = pipeline.fit_many([train] * 3, hparams, bundles)
        _assert_outcomes_bitwise(stacked, singles)
        assert batches == [2, 1]

    def test_fit_and_score_many_per_item_equals_fit_and_score(self):
        pipeline = MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=2)
        train, valid = _train_valid("classification")
        bundles = _bundles("score", 3)
        hparams = _varied_hparams(pipeline, 3)
        stacked = fit_and_score_many(
            pipeline, [train] * 3, [valid] * 3, hparams, bundles, valids=[valid] * 3
        )
        for outcome, item, seeds in zip(stacked, hparams, bundles):
            single = fit_and_score(pipeline, train, valid, item, seeds, valid=valid)
            assert outcome.test_score == single.test_score
            assert outcome.valid_score == single.valid_score
            assert outcome.history == single.history

    def test_per_item_hparams_must_align(self):
        pipeline = MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=1)
        train, _ = _train_valid("classification")
        bundles = _bundles("align", 3)
        with pytest.raises(ValueError, match="one hyperparameter mapping per item"):
            pipeline.fit_many([train] * 3, _varied_hparams(pipeline, 2), bundles)


class TestLeanStep:
    def test_gradients_are_views_into_one_buffer_laid_out_like_flat(self):
        batched = BatchedNetwork(_networks(3, sizes=(6, 5, 4, 3)))
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3, 11, 6))
        y = rng.integers(0, 3, size=(3, 11))
        _, gradients = batched.loss_and_gradients(X, y)
        parameters = batched.parameters()
        assert len(gradients) == len(parameters)
        grad_base = batched.flat_grad.ctypes.data
        flat_base = batched.flat.ctypes.data
        for gradient, parameter in zip(gradients, parameters):
            assert gradient.shape == parameter.shape
            assert np.shares_memory(gradient, batched.flat_grad)
            assert gradient.ctypes.data - grad_base == parameter.ctypes.data - flat_base
        np.testing.assert_array_equal(
            np.concatenate([g.ravel() for g in gradients]), batched.flat_grad
        )

    @pytest.mark.parametrize("encoded", [False, True], ids=["labels", "one-hot"])
    def test_cross_entropy_leaves_its_arguments_unchanged(self, encoded):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 9, 4))
        labels = rng.integers(0, 4, size=(3, 9))
        if encoded:
            labels = one_hot(labels, 4)
        logits_before, labels_before = logits.copy(), labels.copy()
        batched_cross_entropy_loss(logits, labels)
        np.testing.assert_array_equal(logits, logits_before)
        np.testing.assert_array_equal(labels, labels_before)

    def test_one_hot_labels_match_integer_labels(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(2, 13, 5)) * 4.0
        labels = rng.integers(0, 5, size=(2, 13))
        losses, gradient = batched_cross_entropy_loss(logits, labels)
        losses_1h, gradient_1h = batched_cross_entropy_loss(logits, one_hot(labels, 5))
        np.testing.assert_array_equal(losses, losses_1h)
        np.testing.assert_array_equal(gradient, gradient_1h)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_strided_slice_matches_its_contiguous_copy(self, dropout):
        networks = _networks(3, sizes=(6, 7, 3), dropout=dropout)
        batched = BatchedNetwork(networks)
        rng = np.random.default_rng(3)
        X_epoch = rng.normal(size=(3, 40, 6))
        y_epoch = one_hot(rng.integers(0, 3, size=(3, 40)), 3)
        X_slice, y_slice = X_epoch[:, 9:25], y_epoch[:, 9:25]
        assert not X_slice.flags.c_contiguous

        def run(X, y):
            rngs = [np.random.default_rng(seed) for seed in (4, 5, 6)]
            losses, gradients = batched.loss_and_gradients(
                X, y, dropout_rngs=rngs if dropout else None
            )
            return losses, [g.copy() for g in gradients]

        losses, gradients = run(X_slice, y_slice)
        X_before = X_epoch.copy()
        losses_c, gradients_c = run(
            np.ascontiguousarray(X_slice), np.ascontiguousarray(y_slice)
        )
        np.testing.assert_array_equal(losses, losses_c)
        for got, expected in zip(gradients, gradients_c):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(X_epoch, X_before)
        # And per slice, the serial reference network agrees.
        for index, network in enumerate(networks):
            rng_item = np.random.default_rng((4, 5, 6)[index])
            loss, grads = network.loss_and_gradients(
                X_slice[index],
                y_slice[index].argmax(axis=-1),
                dropout_rng=rng_item if dropout else None,
            )
            assert losses[index] == loss
            for stacked, serial in zip(gradients, grads):
                np.testing.assert_array_equal(stacked[index], serial)

    def test_per_item_lays_values_out_like_flat(self):
        batched = BatchedNetwork(_networks(3))
        values = batched.per_item([0.1, 0.2, 0.3])
        assert values.shape == batched.flat.shape
        for parameter in batched.parameters():
            offset = (parameter.ctypes.data - batched.flat.ctypes.data) // 8
            block = values[offset : offset + parameter.size].reshape(parameter.shape)
            for index, value in enumerate((0.1, 0.2, 0.3)):
                assert np.all(block[index] == value)
        with pytest.raises(ValueError):
            batched.per_item([0.1, 0.2])


class TestArrayHyperparameters:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: SGD(learning_rate=np.array([0.1, -0.1])),
            lambda: SGD(learning_rate=np.array([0.1, 0.0])),
            lambda: SGD(learning_rate=0.1, momentum=np.array([0.5, 1.0])),
            lambda: SGD(learning_rate=0.1, momentum=np.array([-0.1, 0.5])),
            lambda: SGD(learning_rate=0.1, weight_decay=np.array([1e-3, -1e-3])),
            lambda: Adam(learning_rate=np.array([0.1, 0.0])),
            lambda: Adam(learning_rate=0.1, weight_decay=np.array([-1.0, 1.0])),
        ],
    )
    def test_invalid_elements_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("optimizer", [SGD, Adam])
    def test_weight_decay_must_be_on_or_off_everywhere(self, optimizer):
        with pytest.raises(ValueError, match="zero everywhere or positive everywhere"):
            optimizer(learning_rate=0.1, weight_decay=np.array([0.0, 1e-3]))

    @pytest.mark.parametrize(
        "optimizer,kwargs",
        [
            (SGD, {"learning_rate": 0.07, "momentum": 0.9, "weight_decay": 3e-3}),
            (SGD, {"learning_rate": 0.07, "momentum": 0.0}),
            (Adam, {"learning_rate": 0.01, "weight_decay": 2e-3}),
            (Adam, {"learning_rate": 0.01}),
        ],
    )
    def test_equal_value_array_steps_bitwise_like_the_scalar(self, optimizer, kwargs):
        rng = np.random.default_rng(7)
        start = rng.normal(size=40)
        gradients = [rng.normal(size=40) for _ in range(6)]
        scalar = optimizer(**kwargs)
        array = optimizer(**{k: np.full(40, v) for k, v in kwargs.items()})
        params_scalar, params_array = [start.copy()], [start.copy()]
        for step, gradient in enumerate(gradients):
            rate = 0.05 / (1 + step)
            scalar.step(params_scalar, [gradient], rate)
            array.step(params_array, [gradient], np.full(40, rate))
        np.testing.assert_array_equal(params_scalar[0], params_array[0])

    def test_step_leaves_gradients_unchanged(self):
        optimizer = SGD(learning_rate=0.1, momentum=0.5, weight_decay=0.1)
        gradient = np.array([1.0, -2.0, 0.5])
        before = gradient.copy()
        optimizer.step([np.ones(3)], [gradient])
        np.testing.assert_array_equal(gradient, before)
