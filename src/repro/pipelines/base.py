"""Pipeline interface shared by all learning pipelines.

A *pipeline* in the sense of the paper is everything between raw data and a
performance number: preprocessing, model family, training procedure and its
hyperparameters.  The estimators of :mod:`repro.core.estimators` only rely
on this small interface, so new pipelines (or wrappers around external
libraries) can be plugged in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.data.dataset import Dataset
from repro.utils.rng import SeedBundle
from repro.utils.validation import check_aligned

__all__ = [
    "Pipeline",
    "FitOutcome",
    "fit_and_score",
    "fit_and_score_many",
    "hparams_per_item",
]

#: Hyperparameters of a batch: one mapping (or ``None``) shared by every
#: item, or a sequence of one mapping per item.
BatchHparams = Union[
    Optional[Mapping[str, Any]], Sequence[Optional[Mapping[str, Any]]]
]


def hparams_per_item(hparams: BatchHparams, n_items: int) -> List[Any]:
    """One hyperparameter mapping per item; a single mapping (or ``None``)
    is shared by all ``n_items``."""
    if hparams is None or isinstance(hparams, Mapping):
        return [hparams] * n_items
    hparams = list(hparams)
    if len(hparams) != n_items:
        raise ValueError(
            f"expected one hyperparameter mapping per item ({n_items}), "
            f"got {len(hparams)}"
        )
    return hparams


@dataclass
class FitOutcome:
    """Everything produced by one training run of a pipeline.

    Attributes
    ----------
    model:
        The fitted model object (pipeline-specific).
    train_score:
        Metric on the training set (larger is better).
    valid_score:
        Metric on the validation set, if one was provided.
    test_score:
        Metric on the test set, if one was provided.
    hparams:
        Hyperparameters used for this fit.
    seeds:
        Seed bundle that drove all stochastic elements of the fit.
    history:
        Optional per-epoch diagnostics (loss curve, learning rate, ...).
    """

    model: Any
    train_score: float
    valid_score: Optional[float] = None
    test_score: Optional[float] = None
    hparams: Dict[str, Any] = field(default_factory=dict)
    seeds: Optional[SeedBundle] = None
    history: Dict[str, list] = field(default_factory=dict)


class Pipeline(ABC):
    """Abstract learning pipeline.

    Concrete pipelines define the model family, its default hyperparameters,
    a hyperparameter search space, and how to fit and evaluate a model.
    All scores follow the *larger is better* convention so estimators and
    comparison criteria can treat every task uniformly.
    """

    #: Human-readable pipeline name.
    name: str = "pipeline"
    #: Name of the evaluation metric (key of ``repro.pipelines.metrics.METRICS``).
    metric_name: str = "accuracy"

    @abstractmethod
    def default_hparams(self) -> Dict[str, Any]:
        """Default hyperparameter values (the paper's per-task defaults)."""

    @abstractmethod
    def search_space(self) -> "Any":
        """Hyperparameter search space (:class:`repro.hpo.space.SearchSpace`)."""

    @abstractmethod
    def fit(
        self,
        train: Dataset,
        hparams: Mapping[str, Any],
        seeds: SeedBundle,
        valid: Optional[Dataset] = None,
    ) -> FitOutcome:
        """Train a model on ``train`` under the given hyperparameters and seeds."""

    @abstractmethod
    def evaluate(self, model: Any, dataset: Dataset) -> float:
        """Evaluate a fitted model on ``dataset``; larger is better."""

    def fit_many(
        self,
        trains: Sequence[Dataset],
        hparams: BatchHparams,
        seeds_list: Sequence[SeedBundle],
        valids: Optional[Sequence[Optional[Dataset]]] = None,
    ) -> List[FitOutcome]:
        """Fit one model per ``(train, seeds)`` pair.

        The batching contract: every item shares the pipeline, while the
        seed bundle, the training set and the hyperparameters may differ
        per item.  ``hparams`` is one mapping shared by every item (the
        repeated measurements of one configuration) or a sequence of one
        mapping per item (the trials of one HOpt run); ``trains``,
        ``seeds_list`` and ``valids`` must have one entry per item.  Every
        item's outcome equals that of :meth:`fit` on the item alone.  The
        default implementation is a sequential loop over :meth:`fit` —
        trivially bitwise-identical to per-item execution.  The linear and
        MLP families override it with the stacked multi-seed kernel, which
        is also how they :meth:`fit` one model: as a batch of one.
        """
        if valids is None:
            valids = [None] * len(trains)
        check_aligned(trains=trains, seeds_list=seeds_list, valids=valids)
        return [
            self.fit(train, item_hparams, seeds, valid=valid)
            for train, item_hparams, seeds, valid in zip(
                trains, hparams_per_item(hparams, len(trains)), seeds_list, valids
            )
        ]

    def with_noise_layers(self, layers) -> "Pipeline":
        """A variant of this pipeline with only the given noise layers on.

        Pipelines that support counterfactual noise-layer toggles (see
        :mod:`repro.pipelines.layers`) override this to return a clone
        whose disabled layers are silenced while every remaining layer
        consumes exactly the same seed streams.  The base implementation
        refuses: a silent no-op would turn an "ablated" measurement into
        an unablated one.
        """
        raise NotImplementedError(
            f"pipeline {self.name!r} does not support noise-layer toggles"
        )

    def resolve_hparams(self, hparams: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
        """Merge user hyperparameters over the defaults."""
        merged = dict(self.default_hparams())
        if hparams:
            unknown = set(hparams) - set(merged)
            if unknown:
                raise ValueError(
                    f"unknown hyperparameters for {self.name}: {sorted(unknown)}"
                )
            merged.update(hparams)
        return merged


def fit_and_score(
    pipeline: Pipeline,
    train: Dataset,
    test: Dataset,
    hparams: Optional[Mapping[str, Any]],
    seeds: SeedBundle,
    valid: Optional[Dataset] = None,
) -> FitOutcome:
    """Fit ``pipeline`` and fill in validation/test scores.

    This is the single entry point used by estimators and HOpt: one call is
    one model fit, which is the unit the paper's cost accounting counts
    (O(kT) for the ideal estimator vs O(k+T) for the biased one).  It is
    :func:`fit_and_score_many` on a batch of one.
    """
    return fit_and_score_many(
        pipeline, [train], [test], hparams, [seeds], valids=[valid]
    )[0]


def fit_and_score_many(
    pipeline: Pipeline,
    trains: Sequence[Dataset],
    tests: Sequence[Dataset],
    hparams: BatchHparams,
    seeds_list: Sequence[SeedBundle],
    valids: Optional[Sequence[Optional[Dataset]]] = None,
) -> List[FitOutcome]:
    """Batched :func:`fit_and_score`: B fits in one :meth:`Pipeline.fit_many`.

    ``hparams`` is one configuration shared by every item or one per item
    (see :meth:`Pipeline.fit_many`).  Fits go through
    :meth:`Pipeline.fit_many` (vectorized where the pipeline supports
    it), evaluation stays per item on each item's own resample — test
    sets vary in size across bootstrap seeds, so scoring cannot be
    stacked.  ``trains``, ``tests``, ``seeds_list`` and ``valids`` must
    have one entry per item.
    """
    if valids is None:
        valids = [None] * len(trains)
    check_aligned(trains=trains, tests=tests, seeds_list=seeds_list, valids=valids)
    resolved = [
        pipeline.resolve_hparams(item_hparams)
        for item_hparams in hparams_per_item(hparams, len(trains))
    ]
    outcomes = pipeline.fit_many(trains, resolved, seeds_list, valids=valids)
    for outcome, valid, test in zip(outcomes, valids, tests):
        if valid is not None and outcome.valid_score is None:
            outcome.valid_score = pipeline.evaluate(outcome.model, valid)
        outcome.test_score = pipeline.evaluate(outcome.model, test)
    return outcomes
