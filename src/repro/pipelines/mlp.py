"""MLP classification and regression pipelines.

These are the workhorse pipelines of the reproduction.  The classifier
stands in for the deep-network case studies (VGG11, BERT fine-tuning); the
regressor stands in for the MHC binding-affinity MLP.  Hyperparameter
search spaces follow the paper's per-task spaces (Tables 2, 3, 5, 6):
learning rate and weight decay on a log scale, momentum and the
learning-rate decay ``gamma`` on a linear scale, plus dropout and the
initialization standard deviation for the BERT-like configuration.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.pipelines.base import BatchHparams, FitOutcome, Pipeline, hparams_per_item
from repro.pipelines.layers import NOISE_LAYERS, combo_label, normalize_layers
from repro.pipelines.metrics import METRICS
from repro.pipelines.nn.batched import BatchedNetwork
from repro.pipelines.nn.network import MLPNetwork
from repro.pipelines.nn.optimizers import SGD, Adam
from repro.pipelines.nn.schedules import ExponentialDecaySchedule
from repro.pipelines.training import TrainingConfig, train_network_many
from repro.utils.rng import SeedBundle
from repro.utils.validation import check_aligned

__all__ = ["MLPClassifierPipeline", "MLPRegressorPipeline"]

#: Seed of the frozen initialization stream used when the ``init`` noise
#: layer is toggled off: every fit then starts from the same deterministic
#: weights while all other streams keep their per-run draws.
_FROZEN_INIT_SEED = 0x1217_5EED


def _build_search_space(include_init_std: bool, include_momentum: bool):
    """Construct the default search space shared by the MLP pipelines."""
    from repro.hpo.space import LinearDimension, LogUniformDimension, SearchSpace

    dims = {
        "learning_rate": LogUniformDimension(1e-3, 3e-1),
        "weight_decay": LogUniformDimension(1e-6, 1e-2),
        "gamma": LinearDimension(0.96, 0.999),
    }
    if include_momentum:
        dims["momentum"] = LinearDimension(0.5, 0.99)
    if include_init_std:
        dims["init_scale"] = LogUniformDimension(0.01, 0.5)
    return SearchSpace(dims)


def _clip_hparams(hparams: Mapping[str, Any]) -> Dict[str, Any]:
    """Project hyperparameters into their physically valid ranges.

    Hyperparameter optimizers such as the noisy grid search deliberately
    shift their search bounds (Appendix E.2), which can propose values just
    outside hard constraints (momentum ≥ 1, decay γ > 1, negative weight
    decay).  Training still has to be well defined for such proposals, so
    they are clipped here rather than rejected.
    """
    clipped = dict(hparams)
    if "learning_rate" in clipped:
        clipped["learning_rate"] = max(float(clipped["learning_rate"]), 1e-8)
    if "weight_decay" in clipped:
        clipped["weight_decay"] = max(float(clipped["weight_decay"]), 0.0)
    if "momentum" in clipped:
        clipped["momentum"] = float(np.clip(clipped["momentum"], 0.0, 0.999))
    if "gamma" in clipped:
        clipped["gamma"] = float(np.clip(clipped["gamma"], 1e-3, 1.0))
    if "dropout_rate" in clipped:
        clipped["dropout_rate"] = float(np.clip(clipped["dropout_rate"], 0.0, 0.95))
    if "init_scale" in clipped:
        clipped["init_scale"] = max(float(clipped["init_scale"]), 1e-8)
    return clipped


def _flat_values(
    batched: BatchedNetwork, hparams: Sequence[Mapping[str, Any]], *names: str
) -> Dict[str, np.ndarray]:
    """Each named hyperparameter, one value per item, laid out like
    ``batched.flat``."""
    return {
        name: batched.per_item([float(item[name]) for item in hparams])
        for name in names
    }


class _NetworkPipeline(Pipeline):
    """Fit and evaluation shared by the pipelines built on :class:`MLPNetwork`.

    A fit is a stacked batch of one: :meth:`fit` is ``fit_many([train])[0]``.
    :meth:`fit_many` groups its items and trains each group in one
    :func:`train_network_many` pass.  A group shares:

    * the training-set shape and the output width — bootstrap resamples
      usually share one shape, but a degenerate resample (an empty
      out-of-bag set shrinks the in-bag pool) or one that misses the top
      class (narrowing the classifier's output) does not;
    * the dropout rate;
    * whether weight decay is on: the optimizer skips the decay term when
      it is off, which adding ``0.0 * p`` would not reproduce bitwise.

    Within a group each item keeps its own learning rate, weight decay,
    momentum, learning-rate schedule and initial weights (drawn from its
    seed's own ``init`` stream), and a fresh optimizer steps each group,
    so every item's outcome is bitwise-identical whatever it is batched
    with.

    Subclasses provide ``_output_size``, ``_build_network`` and
    ``_training_config``, and may override ``_build_optimizer`` (SGD with
    momentum by default).
    """

    def fit(
        self,
        train: Dataset,
        hparams: Mapping[str, Any],
        seeds: SeedBundle,
        valid: Optional[Dataset] = None,
    ) -> FitOutcome:
        return self.fit_many([train], hparams, [seeds], valids=[valid])[0]

    def fit_many(
        self,
        trains: Sequence[Dataset],
        hparams: BatchHparams,
        seeds_list: Sequence[SeedBundle],
        valids: Optional[Sequence[Optional[Dataset]]] = None,
    ) -> List[FitOutcome]:
        trains, seeds_list = list(trains), list(seeds_list)
        valids = [None] * len(trains) if valids is None else list(valids)
        check_aligned(trains=trains, seeds_list=seeds_list, valids=valids)
        items = [
            _clip_hparams(self.resolve_hparams(item))
            for item in hparams_per_item(hparams, len(trains))
        ]
        networks = [
            self._build_network(train, item, seeds)
            for train, item, seeds in zip(trains, items, seeds_list)
        ]
        groups: Dict[Tuple, List[int]] = {}
        for index, (train, network) in enumerate(zip(trains, networks)):
            key = (
                train.X.shape,
                network.layer_sizes[-1],
                network.dropout_rate,
                items[index]["weight_decay"] > 0,
            )
            groups.setdefault(key, []).append(index)
        outcomes: List[FitOutcome] = [None] * len(trains)  # type: ignore[list-item]
        for members in groups.values():
            group = [items[index] for index in members]
            batched = BatchedNetwork([networks[index] for index in members])
            histories = train_network_many(
                batched,
                [trains[index] for index in members],
                self._build_optimizer(group, batched),
                self._training_config(),
                [seeds_list[index] for index in members],
                [self._schedule(item) for item in group],
            )
            batched.unstack()
            for index, history in zip(members, histories):
                network, valid = networks[index], valids[index]
                outcomes[index] = FitOutcome(
                    model=network,
                    train_score=self.evaluate(network, trains[index]),
                    valid_score=(
                        self.evaluate(network, valid) if valid is not None else None
                    ),
                    hparams=dict(items[index]),
                    seeds=seeds_list[index],
                    history=history.as_dict(),
                )
        return outcomes

    def _build_optimizer(
        self, hparams: Sequence[Mapping[str, Any]], batched: BatchedNetwork
    ):
        """One group's optimizer, each item's values laid out like
        ``batched.flat``."""
        names = ("learning_rate", "momentum", "weight_decay")
        return SGD(**_flat_values(batched, hparams, *names))

    def _schedule(self, hparams: Mapping[str, Any]) -> ExponentialDecaySchedule:
        """One item's learning-rate schedule."""
        return ExponentialDecaySchedule(
            learning_rate=float(hparams["learning_rate"]), gamma=float(hparams["gamma"])
        )

    def evaluate(self, model: MLPNetwork, dataset: Dataset) -> float:
        metric = METRICS[self.metric_name]
        return float(metric(dataset.y, model.predict(dataset.X)))

    def _output_size(self, train: Dataset) -> int:
        raise NotImplementedError


class _BaseMLPPipeline(_NetworkPipeline):
    """Shared implementation of the MLP pipelines."""

    task_type = "classification"

    def __init__(
        self,
        *,
        hidden_sizes: Sequence[int] = (32,),
        n_epochs: int = 20,
        batch_size: int = 32,
        activation: str = "relu",
        optimizer: str = "sgd",
        metric_name: str = "accuracy",
        augmentations: Sequence = (),
        dropout_rate: float = 0.0,
        numerical_noise_scale: float = 0.0,
        noise_layers: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.n_epochs = int(n_epochs)
        self.batch_size = int(batch_size)
        self.activation = activation
        self.optimizer_name = optimizer
        self.metric_name = metric_name
        self.augmentations = tuple(augmentations)
        self.dropout_rate = float(dropout_rate)
        self.numerical_noise_scale = float(numerical_noise_scale)
        self.noise_layers = (
            NOISE_LAYERS if noise_layers is None else normalize_layers(noise_layers)
        )
        if optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if metric_name not in METRICS:
            raise ValueError(f"unknown metric {metric_name!r}")
        self.name = name or f"mlp-{self.task_type}"
        self._base_name = self.name
        if self.noise_layers != NOISE_LAYERS:
            self.name = f"{self._base_name}[layers={combo_label(self.noise_layers)}]"

    def _layer_on(self, layer: str) -> bool:
        """Whether a noise layer is enabled for this pipeline."""
        return layer in self.noise_layers

    def with_noise_layers(self, layers) -> "_BaseMLPPipeline":
        """A clone of this pipeline with the given noise layers enabled.

        The clone's ``name`` carries the layer-combination label (unless
        every layer is on) because the measurement cache keys pipelines by
        name — two toggle variants must never collide on one cache entry.
        A layer-off clone consumes exactly the same seed streams for the
        remaining layers as the original, making its measurements true
        counterfactuals under a shared seed bundle.
        """
        layers = normalize_layers(layers)
        clone = copy.copy(self)
        clone.noise_layers = layers
        clone.name = clone._base_name
        if layers != NOISE_LAYERS:
            clone.name = f"{clone._base_name}[layers={combo_label(layers)}]"
        return clone

    def default_hparams(self) -> Dict[str, Any]:
        return {
            "learning_rate": 0.03,
            "weight_decay": 2e-3,
            "momentum": 0.9,
            "gamma": 0.97,
            "dropout_rate": self.dropout_rate,
            "init_scale": 1.0,
        }

    def search_space(self):
        return _build_search_space(
            include_init_std=self.optimizer_name == "adam",
            include_momentum=self.optimizer_name == "sgd",
        )

    def _init_scheme(self) -> str:
        return "gaussian" if self.optimizer_name == "adam" else "glorot_uniform"

    def _build_network(
        self, train: Dataset, hparams: Mapping[str, Any], seeds: SeedBundle
    ) -> MLPNetwork:
        layer_sizes = [train.n_features, *self.hidden_sizes, self._output_size(train)]
        if self._layer_on("init"):
            init_rng = seeds.rng_for("init")
        else:
            # Counterfactual: frozen deterministic init, other streams
            # untouched (each source owns an independent generator).
            init_rng = np.random.default_rng(_FROZEN_INIT_SEED)
        return MLPNetwork(
            layer_sizes,
            activation=self.activation,
            task_type=self.task_type,
            dropout_rate=(
                float(hparams["dropout_rate"]) if self._layer_on("dropout") else 0.0
            ),
            init_scheme=self._init_scheme(),
            init_scale=float(hparams["init_scale"]),
            init_rng=init_rng,
        )

    def _build_optimizer(
        self, hparams: Sequence[Mapping[str, Any]], batched: BatchedNetwork
    ):
        if self.optimizer_name == "adam":
            names = ("learning_rate", "weight_decay")
            return Adam(**_flat_values(batched, hparams, *names))
        return super()._build_optimizer(hparams, batched)

    def _training_config(self) -> TrainingConfig:
        return TrainingConfig(
            n_epochs=self.n_epochs,
            batch_size=self.batch_size,
            augmentations=self.augmentations if self._layer_on("augment") else (),
            numerical_noise_scale=self.numerical_noise_scale,
            shuffle=self._layer_on("order"),
        )


class MLPClassifierPipeline(_BaseMLPPipeline):
    """Multi-layer perceptron classifier pipeline.

    Parameters
    ----------
    hidden_sizes:
        Hidden-layer widths.
    n_epochs, batch_size:
        Training-loop configuration (not tuned by HOpt, matching the paper
        which fixes batch size).
    optimizer:
        ``"sgd"`` (CIFAR10/VGG-like configuration, Glorot init, momentum) or
        ``"adam"`` (BERT-like configuration, Gaussian init with tunable
        standard deviation).
    metric_name:
        One of :data:`repro.pipelines.metrics.METRICS`.
    augmentations:
        Optional stochastic data augmentations (``augment`` variance source).
    numerical_noise_scale:
        Scale of the simulated numerical noise floor.
    """

    task_type = "classification"

    def _output_size(self, train: Dataset) -> int:
        return int(np.max(train.y)) + 1


class MLPRegressorPipeline(_BaseMLPPipeline):
    """Multi-layer perceptron regressor (MHC binding-affinity analogue).

    Uses a single linear output unit trained with mean squared error; the
    default evaluation metric is the coefficient of determination, but the
    Pearson correlation used in the paper's Table 8 is also available.
    """

    task_type = "regression"

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("metric_name", "r2")
        kwargs.setdefault("hidden_sizes", (64,))
        super().__init__(**kwargs)

    def _output_size(self, train: Dataset) -> int:
        return 1
