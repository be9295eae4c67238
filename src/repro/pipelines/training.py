"""Seed-controlled mini-batch training loop.

This is where the paper's learning-procedure variance sources
:math:`\\xi_O` physically enter a fit:

* ``order``      — the permutation of examples at every epoch,
* ``dropout``    — the dropout masks,
* ``augment``    — stochastic data augmentation applied per epoch,
* ``init``       — consumed earlier, when the network weights are drawn,
* ``numerical``  — a small post-training parameter perturbation emulating
  non-deterministic kernels (Appendix A measures this as the noise floor).

Each source reads from its own :class:`numpy.random.Generator` supplied by a
:class:`~repro.utils.rng.SeedBundle`, so experiments can randomize any
subset while holding the others fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.pipelines.nn.batched import BatchedNetwork, one_hot
from repro.pipelines.nn.optimizers import Optimizer
from repro.utils.rng import SeedBundle
from repro.utils.validation import check_positive_int

__all__ = ["TrainingConfig", "TrainingHistory", "train_network_many"]

#: Type of an augmentation transform: (X, rng) -> X'.
Transform = Callable[[np.ndarray, np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class TrainingConfig:
    """Static configuration of one training run.

    Attributes
    ----------
    n_epochs:
        Number of passes over the training data.
    batch_size:
        Mini-batch size.
    schedule:
        Callable mapping epoch index to learning rate.
    augmentations:
        Sequence of stochastic transforms applied to each epoch's features.
    numerical_noise_scale:
        Relative scale of the post-training parameter perturbation emulating
        numerical non-determinism; 0 disables it.
    shuffle:
        Whether to reshuffle the data every epoch (the ``order`` source).
    """

    n_epochs: int = 20
    batch_size: int = 32
    schedule: Optional[Callable[[int], float]] = None
    augmentations: Sequence[Transform] = ()
    numerical_noise_scale: float = 0.0
    shuffle: bool = True


@dataclass
class TrainingHistory:
    """Per-epoch diagnostics collected during training."""

    losses: List[float] = field(default_factory=list)
    learning_rates: List[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        """Plain-dict view used by :class:`repro.pipelines.base.FitOutcome`."""
        return {"losses": list(self.losses), "learning_rates": list(self.learning_rates)}


def train_network_many(
    batched: BatchedNetwork,
    trains: Sequence[Dataset],
    optimizer: Optimizer,
    config: TrainingConfig,
    seeds_list: Sequence[SeedBundle],
    schedules: Optional[Sequence[Callable[[int], float]]] = None,
) -> List[TrainingHistory]:
    """Train B stacked networks in lockstep, one per ``(train, seeds)`` pair.

    This is the only training loop; a single fit runs it at B=1.  Every
    random stream (order permutations, dropout masks, augmentations, the
    numerical perturbation) is consumed *per item* from that item's own
    seed bundle, in the order a fit of that item alone consumes it, while
    the arithmetic between draws (forward, backward, optimizer step) runs
    once on the ``(B, ...)`` stacks.  Each history is therefore
    bitwise-equal to the one the item gets in a batch of one.

    What may differ per item: the seed bundle, the training set's values
    (every set must have the same shape —
    :meth:`repro.pipelines.mlp._NetworkPipeline.fit_many` groups items by
    shape before calling this), the initial weights, the learning-rate
    schedule (``schedules``, one per item, positional; default: every
    item follows ``config.schedule``) and the optimizer's learning rate,
    weight decay and momentum, given as :meth:`BatchedNetwork.per_item`
    arrays.  Everything else in ``config`` and the optimizer is shared.
    Each item's history records the rate its own schedule set; without
    any schedule, the optimizer's ``learning_rate``.

    Each epoch gathers its shuffled inputs and targets once (classifier
    labels one-hot encoded once per call) and slices its mini-batches
    from them.  The optimizer steps once per mini-batch on
    ``[batched.flat]`` with the gradients in ``[batched.flat_grad]``.
    """
    check_positive_int(config.n_epochs, "n_epochs")
    check_positive_int(config.batch_size, "batch_size")
    trains = list(trains)
    seeds_list = list(seeds_list)
    if len(trains) != len(seeds_list) or len(trains) != batched.n_items:
        raise ValueError("trains, seeds_list and the batch must align")
    n_samples = trains[0].n_samples
    if any(t.n_samples != n_samples for t in trains):
        raise ValueError("all training sets must have the same size")
    n_items = batched.n_items
    if schedules is None and config.schedule is not None:
        schedules = [config.schedule] * n_items
    if schedules is not None and len(schedules) != n_items:
        raise ValueError("schedules must have one entry per item")
    order_rngs = [seeds.rng_for("order") for seeds in seeds_list]
    dropout_rngs = (
        [seeds.rng_for("dropout") for seeds in seeds_list]
        if batched.dropout_rate > 0
        else None
    )
    augment_rngs = (
        [seeds.rng_for("augment") for seeds in seeds_list]
        if config.augmentations
        else None
    )
    X_all = np.stack([train.X for train in trains])
    y_all = np.stack([train.y for train in trains])
    if batched.task_type == "classification":
        y_all = one_hot(y_all, batched.layer_sizes[-1])
    items = np.arange(n_items)[:, None]
    histories = [TrainingHistory() for _ in range(n_items)]
    for epoch in range(config.n_epochs):
        if schedules is None:
            rates = [optimizer.learning_rate] * n_items
            lr = None
        else:
            rates = [schedule(epoch) for schedule in schedules]
            lr = batched.per_item(rates)
        X_epoch, y_epoch = X_all, y_all
        if augment_rngs is not None:
            X_items = []
            for train, augment_rng in zip(trains, augment_rngs):
                X_item = train.X
                for transform in config.augmentations:
                    X_item = transform(X_item, augment_rng)
                X_items.append(X_item)
            X_epoch = np.stack(X_items)
        if config.shuffle:
            orders = np.stack([rng.permutation(n_samples) for rng in order_rngs])
            X_epoch, y_epoch = X_epoch[items, orders], y_epoch[items, orders]
        epoch_losses = np.zeros(n_items)
        for start in range(0, n_samples, config.batch_size):
            stop = min(start + config.batch_size, n_samples)
            losses, _ = batched.loss_and_gradients(
                X_epoch[:, start:stop],
                y_epoch[:, start:stop],
                dropout_rngs=dropout_rngs,
            )
            optimizer.step([batched.flat], [batched.flat_grad], lr)
            epoch_losses += losses * (stop - start)
        for index in range(n_items):
            histories[index].losses.append(float(epoch_losses[index] / n_samples))
            histories[index].learning_rates.append(rates[index])
    if config.numerical_noise_scale > 0:
        batched.perturb_parameters(
            config.numerical_noise_scale,
            [seeds.rng_for("numerical") for seeds in seeds_list],
        )
    return histories
