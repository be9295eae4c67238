"""Linear baseline pipelines: logistic regression and ridge regression.

The paper compares learning *algorithms* A and B; to exercise those
comparisons we need baselines that are genuinely weaker or stronger than
the MLP pipelines.  Both linear models are trained with the same
seed-controlled mini-batch loop so they expose the same variance sources
(init, data order, numerical noise) — only without dropout.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.pipelines.metrics import METRICS
from repro.pipelines.mlp import _NetworkPipeline
from repro.pipelines.nn.network import MLPNetwork
from repro.pipelines.training import TrainingConfig
from repro.utils.rng import SeedBundle

__all__ = ["LogisticRegressionPipeline", "RidgeRegressionPipeline"]


class _BaseLinearPipeline(_NetworkPipeline):
    """Shared implementation of the linear pipelines."""

    task_type = "classification"

    def __init__(
        self,
        *,
        n_epochs: int = 20,
        batch_size: int = 32,
        metric_name: str = "accuracy",
        numerical_noise_scale: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        self.n_epochs = int(n_epochs)
        self.batch_size = int(batch_size)
        self.metric_name = metric_name
        self.numerical_noise_scale = float(numerical_noise_scale)
        if metric_name not in METRICS:
            raise ValueError(f"unknown metric {metric_name!r}")
        self.name = name or f"linear-{self.task_type}"

    def default_hparams(self) -> Dict[str, Any]:
        return {
            "learning_rate": 0.05,
            "weight_decay": 1e-4,
            "momentum": 0.9,
            "gamma": 0.98,
        }

    def search_space(self):
        from repro.hpo.space import LinearDimension, LogUniformDimension, SearchSpace

        return SearchSpace(
            {
                "learning_rate": LogUniformDimension(1e-3, 3e-1),
                "weight_decay": LogUniformDimension(1e-6, 1e-1),
                "momentum": LinearDimension(0.5, 0.99),
                "gamma": LinearDimension(0.96, 0.999),
            }
        )

    def _build_network(
        self, train: Dataset, hparams: Mapping[str, Any], seeds: SeedBundle
    ) -> MLPNetwork:
        # A linear model is a zero-hidden-layer MLP, which lets us reuse the
        # same seed-controlled training loop and optimizers.
        return MLPNetwork(
            [train.n_features, self._output_size(train)],
            task_type=self.task_type,
            dropout_rate=0.0,
            init_scheme="glorot_uniform",
            init_rng=seeds.rng_for("init"),
        )

    def _training_config(self) -> TrainingConfig:
        return TrainingConfig(
            n_epochs=self.n_epochs,
            batch_size=self.batch_size,
            numerical_noise_scale=self.numerical_noise_scale,
        )


class LogisticRegressionPipeline(_BaseLinearPipeline):
    """Multinomial logistic regression trained with mini-batch SGD."""

    task_type = "classification"

    def _output_size(self, train: Dataset) -> int:
        return int(np.max(train.y)) + 1


class RidgeRegressionPipeline(_BaseLinearPipeline):
    """L2-regularized linear regression trained with mini-batch SGD."""

    task_type = "regression"

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("metric_name", "r2")
        super().__init__(**kwargs)

    def _output_size(self, train: Dataset) -> int:
        return 1
