"""Tests for the seed-controlled training loop, driven one network at a time."""

import numpy as np
import pytest

from repro.data.augmentation import GaussianJitter
from repro.pipelines.nn.batched import BatchedNetwork
from repro.pipelines.nn.network import MLPNetwork
from repro.pipelines.nn.optimizers import SGD
from repro.pipelines.nn.schedules import ExponentialDecaySchedule
from repro.pipelines.training import TrainingConfig, train_network_many


def _make_network(seeds):
    return MLPNetwork([6, 8, 3], init_rng=seeds.rng_for("init"), dropout_rate=0.2)


def _train_alone(network, train, optimizer, config, seeds):
    """Train ``network`` in place through the training loop at B=1."""
    batched = BatchedNetwork([network])
    (history,) = train_network_many(batched, [train], optimizer, config, [seeds])
    batched.unstack()
    return history


class TestTrainNetwork:
    def test_loss_decreases(self, blobs_dataset, seed_bundle):
        network = _make_network(seed_bundle)
        history = _train_alone(
            network,
            blobs_dataset,
            SGD(learning_rate=0.1, momentum=0.9),
            TrainingConfig(n_epochs=10, batch_size=32),
            seed_bundle,
        )
        assert history.losses[-1] < history.losses[0]

    def test_history_lengths(self, blobs_dataset, seed_bundle):
        network = _make_network(seed_bundle)
        history = _train_alone(
            network,
            blobs_dataset,
            SGD(learning_rate=0.05),
            TrainingConfig(n_epochs=4, batch_size=16),
            seed_bundle,
        )
        assert len(history.losses) == 4
        assert len(history.learning_rates) == 4

    def test_schedule_applied(self, blobs_dataset, seed_bundle):
        network = _make_network(seed_bundle)
        history = _train_alone(
            network,
            blobs_dataset,
            SGD(learning_rate=0.1),
            TrainingConfig(n_epochs=3, schedule=ExponentialDecaySchedule(0.1, gamma=0.5)),
            seed_bundle,
        )
        np.testing.assert_allclose(history.learning_rates, [0.1, 0.05, 0.025])

    def test_full_reproducibility_with_same_seeds(self, blobs_dataset, seed_bundle):
        outputs = []
        for _ in range(2):
            network = _make_network(seed_bundle)
            _train_alone(
                network,
                blobs_dataset,
                SGD(learning_rate=0.05, momentum=0.9),
                TrainingConfig(n_epochs=3, augmentations=(GaussianJitter(0.05),)),
                seed_bundle,
            )
            outputs.append(network.predict(blobs_dataset.X))
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_order_seed_changes_result(self, blobs_dataset, seed_bundle, rng):
        results = []
        for bundle in (seed_bundle, seed_bundle.randomized(["order"], rng)):
            network = _make_network(seed_bundle)  # same init for both
            _train_alone(
                network,
                blobs_dataset,
                SGD(learning_rate=0.05, momentum=0.9),
                TrainingConfig(n_epochs=3),
                bundle,
            )
            results.append(network.weights[0].copy())
        assert not np.allclose(results[0], results[1])

    def test_numerical_noise_applied_after_training(self, blobs_dataset, seed_bundle):
        quiet = _make_network(seed_bundle)
        noisy = _make_network(seed_bundle)
        for network, scale in ((quiet, 0.0), (noisy, 1e-3)):
            _train_alone(
                network,
                blobs_dataset,
                SGD(learning_rate=0.05),
                TrainingConfig(n_epochs=2, numerical_noise_scale=scale),
                seed_bundle,
            )
        assert not np.allclose(quiet.weights[0], noisy.weights[0])

    def test_invalid_config_rejected(self, blobs_dataset, seed_bundle):
        with pytest.raises(ValueError):
            _train_alone(
                _make_network(seed_bundle),
                blobs_dataset,
                SGD(learning_rate=0.05),
                TrainingConfig(n_epochs=0),
                seed_bundle,
            )
