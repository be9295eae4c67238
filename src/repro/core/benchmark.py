"""The benchmark process: data splitting, HOpt, training and evaluation.

This module wires a dataset, a learning pipeline, a resampling scheme and a
hyperparameter-optimization algorithm into the probabilistic benchmark
process of Section 2.1:

.. math::

    \\hat{h}^*(S_{tv}) = P(S_{tv}) = \\mathrm{Opt}(S_{tv}, \\mathrm{HOpt}(S_{tv}))

A single *measurement* of the process — one point :math:`\\hat{R}_e` — is a
complete realization: draw a (train, valid, test) resample with the
``data`` stream, (optionally) run HOpt with the ``hopt`` stream, train the
pipeline with the remaining :math:`\\xi_O` streams, and evaluate the test
score.  The estimators of :mod:`repro.core.estimators` are thin policies on
top of this class that decide which seeds are randomized between
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.data.dataset import Dataset
from repro.data.resampling import BootstrapResampler
from repro.hpo.base import BatchObjective, HPOptimizer, HPOResult
from repro.hpo.random_search import RandomSearch
from repro.pipelines.base import Pipeline, fit_and_score_many
from repro.utils.rng import SeedBundle
from repro.utils.validation import check_positive_int

__all__ = ["Measurement", "BenchmarkProcess"]


@dataclass(frozen=True)
class Measurement:
    """One realization of the benchmark process.

    Attributes
    ----------
    test_score:
        :math:`\\hat{R}_e(\\hat{h}^*, S_o)` on the held-out (out-of-bootstrap)
        set; larger is better.
    valid_score, train_score:
        Scores on the validation and training subsets.
    hparams:
        Hyperparameters used for the final fit.
    seeds:
        Seed bundle that produced this measurement.
    n_fits:
        Number of model fits consumed to produce the measurement (1 when
        hyperparameters were supplied, ``T + 1`` when HOpt ran first).
    hpo_result:
        The full :class:`~repro.hpo.base.HPOResult` when HOpt ran inside
        the measurement (``None`` otherwise).  Carrying it on the
        measurement lets the engine replay optimization *curves* — not
        just final scores — from the cache.
    """

    test_score: float
    valid_score: Optional[float]
    train_score: float
    hparams: Dict[str, Any] = field(default_factory=dict)
    seeds: Optional[SeedBundle] = None
    n_fits: int = 1
    hpo_result: Optional[HPOResult] = None


class BenchmarkProcess:
    """A complete learning pipeline evaluated on a finite dataset.

    Parameters
    ----------
    dataset:
        The finite dataset :math:`S`.
    pipeline:
        Learning pipeline (model family + training procedure).
    resampler:
        Resampling scheme producing (train, valid, test) from the dataset;
        defaults to out-of-bootstrap resampling (Appendix B).
    hpo_algorithm:
        Hyperparameter-optimization algorithm (``HOpt``); defaults to
        random search.
    hpo_budget:
        Number of HOpt trials ``T``.
    """

    def __init__(
        self,
        dataset: Dataset,
        pipeline: Pipeline,
        *,
        resampler: Optional[BootstrapResampler] = None,
        hpo_algorithm: Optional[HPOptimizer] = None,
        hpo_budget: int = 20,
    ) -> None:
        self.dataset = dataset
        self.pipeline = pipeline
        self.resampler = resampler if resampler is not None else BootstrapResampler()
        self.hpo_algorithm = (
            hpo_algorithm if hpo_algorithm is not None else RandomSearch()
        )
        self.hpo_budget = check_positive_int(hpo_budget, "hpo_budget")

    # ------------------------------------------------------------------
    # Benchmark-process building blocks
    # ------------------------------------------------------------------
    def split(self, seeds: SeedBundle) -> Tuple[Dataset, Dataset, Dataset]:
        """Draw a (train, valid, test) resample using the ``data`` stream."""
        return self.resampler.split(self.dataset, seeds.rng_for("data"))

    def run_hpo(
        self,
        seeds: SeedBundle,
        *,
        budget: Optional[int] = None,
    ) -> HPOResult:
        """Run hyperparameter optimization: :math:`HOpt(S_{tv}, \\xi_O, \\xi_H)`.

        The data split and the training seeds used inside the HOpt objective
        are taken from ``seeds`` (the :math:`\\xi_O` part); the optimizer's
        own randomness comes from the ``hopt`` stream (the :math:`\\xi_H`
        part).  The objective minimized is ``1 - validation score``, i.e.
        the validation error / regret tracked in Figure F.2.

        Every proposal batch (see :mod:`repro.hpo.base`) is fitted in one
        :func:`~repro.pipelines.base.fit_and_score_many` call with one
        configuration per trial: the trials share the training split and
        the seed bundle, so they stack into one kernel pass, each trial's
        value bitwise what a fit of its configuration alone gives.  The
        stack holds a copy of the training split per trial, so memory
        grows with the number of trials proposed together.
        """
        budget = self.hpo_budget if budget is None else check_positive_int(budget, "budget")
        train, valid, _ = self.split(seeds)

        def objective(configs: List[Dict[str, float]]) -> List[float]:
            n_trials = len(configs)
            outcomes = fit_and_score_many(
                self.pipeline,
                [train] * n_trials,
                [valid] * n_trials,
                configs,
                [seeds] * n_trials,
                valids=[valid] * n_trials,
            )
            return [1.0 - float(outcome.valid_score) for outcome in outcomes]

        return self.hpo_algorithm.optimize(
            BatchObjective(objective),
            self.pipeline.search_space(),
            budget=budget,
            random_state=seeds.rng_for("hopt"),
        )

    def measure(
        self,
        seeds: SeedBundle,
        hparams: Optional[Mapping[str, Any]] = None,
    ) -> Measurement:
        """One measurement with *given* hyperparameters (``Opt`` + evaluate).

        This is the inner loop of the biased estimator (Algorithm 2): the
        hyperparameters come from a previous HOpt run and only the
        :math:`\\xi_O` seeds of ``seeds`` matter.  It is
        :meth:`measure_many` on a batch of one.
        """
        return self.measure_many([seeds], hparams)[0]

    def measure_many(
        self,
        seeds_list: Sequence[SeedBundle],
        hparams: Optional[Mapping[str, Any]] = None,
    ) -> List[Measurement]:
        """B measurements with *given* hyperparameters in one batched pass.

        Each seed bundle draws its own resample with its ``data`` stream,
        then all B fits go through :meth:`Pipeline.fit_many` — vectorized
        into one stacked multi-seed kernel where the pipeline supports it.
        Evaluation stays per item on each item's own (variable-size)
        out-of-bootstrap test set.  Per item the measurement is
        bitwise-identical whatever it is batched with.
        """
        seeds_list = list(seeds_list)
        if not seeds_list:
            return []
        splits = [self.split(seeds) for seeds in seeds_list]
        trains, valids, tests = (list(part) for part in zip(*splits))
        outcomes = fit_and_score_many(
            self.pipeline, trains, tests, hparams, seeds_list, valids=valids
        )
        return [
            Measurement(
                test_score=float(outcome.test_score),
                valid_score=outcome.valid_score,
                train_score=float(outcome.train_score),
                hparams=dict(outcome.hparams),
                seeds=seeds,
                n_fits=1,
            )
            for outcome, seeds in zip(outcomes, seeds_list)
        ]

    def measure_with_hpo(self, seeds: SeedBundle) -> Measurement:
        """One measurement including its own HOpt run (Algorithm 1 inner loop).

        Runs :math:`HOpt` for ``hpo_budget`` trials under the given seeds,
        then trains with the best configuration and evaluates on the test
        set.  Costs ``hpo_budget + 1`` model fits.
        """
        hpo_result = self.run_hpo(seeds)
        measurement = self.measure(seeds, hpo_result.best_config)
        return Measurement(
            test_score=measurement.test_score,
            valid_score=measurement.valid_score,
            train_score=measurement.train_score,
            hparams=measurement.hparams,
            seeds=seeds,
            n_fits=self.hpo_budget + 1,
            hpo_result=hpo_result,
        )
