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
from repro.hpo.base import HPOptimizer, HPORun, HPOResult, optimize_runs, trial_rank
from repro.hpo.random_search import RandomSearch
from repro.pipelines.base import FitOutcome, Pipeline, fit_and_score_many
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
        Model fits the measurement costs in the paper's accounting: 1
        when hyperparameters were supplied, ``T + 1`` when HOpt ran first
        (``T`` trials and the final fit).  The final fit of an HOpt
        measurement is its winning trial's fit, which was already paid
        for, so the engine runs ``T`` fits; the count keeps the paper's
        cost unit.
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

        It is a batch of one through the HOpt path of
        :meth:`measure_many_with_hpo`, on a copy of the process's
        optimizer, so concurrent calls share no search state.
        """
        budget = self.hpo_budget if budget is None else budget
        ((result, _, _),) = self._optimize_many([seeds], budget)
        return result

    def _optimize_many(
        self, seeds_list: Sequence[SeedBundle], budget: int
    ) -> List[Tuple[HPOResult, FitOutcome, Dataset]]:
        """One HOpt run per seed bundle, every proposal round in one fit call.

        Each run splits once with its ``data`` stream and draws its
        configurations from its ``hopt`` stream (:class:`HPORun`).  Each
        round of :func:`~repro.hpo.base.optimize_runs` — the proposal
        batches of every unfinished run — goes through one
        :func:`~repro.pipelines.base.fit_and_score_many` call with one
        configuration per trial, so trials of one run and trials of
        different runs stack into one kernel pass wherever their training
        splits share a shape, each trial's value bitwise what a fit of its
        configuration alone gives.  The stack holds a copy of a training
        split per trial, so memory grows with the trials proposed in one
        round across all runs (up to ``len(seeds_list) * budget``).

        Only each run's best fit so far is kept — ranked by
        :func:`~repro.hpo.base.trial_rank`, as
        :attr:`HPOResult.best_trial` ranks — so a run holds one model.
        Returns ``(trials, winning fit, test split)`` per run.
        """
        space = self.pipeline.search_space()
        splits = [self.split(seeds) for seeds in seeds_list]
        runs = [
            HPORun.start(
                self.hpo_algorithm,
                space,
                budget=budget,
                random_state=seeds.rng_for("hopt"),
            )
            for seeds in seeds_list
        ]
        best: List[Optional[Tuple[float, FitOutcome]]] = [None] * len(runs)

        def evaluate(proposals) -> List[List[float]]:
            trials = [
                (position, config)
                for position, configs in proposals
                for config in configs
            ]
            valids = [splits[position][1] for position, _ in trials]
            outcomes = fit_and_score_many(
                self.pipeline,
                [splits[position][0] for position, _ in trials],
                valids,  # the objective's "test" set is the validation split
                [config for _, config in trials],
                [seeds_list[position] for position, _ in trials],
                valids=valids,
            )
            values: Dict[int, List[float]] = {position: [] for position, _ in proposals}
            for (position, _), outcome in zip(trials, outcomes):
                value = 1.0 - float(outcome.valid_score)
                kept = best[position]
                if kept is None or trial_rank(value) < trial_rank(kept[0]):
                    best[position] = (value, outcome)
                values[position].append(value)
            return [values[position] for position, _ in proposals]

        optimize_runs(runs, evaluate)
        return [
            (run.result, winner, test)
            for run, (_, winner), (_, _, test) in zip(runs, best, splits)
        ]

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

        :meth:`measure_many_with_hpo` on a batch of one.
        """
        return self.measure_many_with_hpo([seeds])[0]

    def measure_many_with_hpo(
        self, seeds_list: Sequence[SeedBundle]
    ) -> List[Measurement]:
        """B measurements, each with its own HOpt run, in batched rounds.

        Runs :math:`HOpt` for ``hpo_budget`` trials under each seed bundle,
        every proposal round of all B runs in one fit call (see
        :meth:`_optimize_many`).  Each run's winning trial — the one
        :attr:`HPOResult.best_trial` names — is its final model: its
        validation and training scores and hyperparameters are the
        measurement's, and one evaluation on the run's test split gives
        the test score.  The final fit is the winning trial's fit, on the
        trials' training split (not on the union of training and
        validation sets Algorithm 1 refits on), so nothing is refitted:
        the engine runs ``hpo_budget`` fits per measurement, and
        ``n_fits`` counts ``hpo_budget + 1`` as the paper does.  Per item
        the measurement is bitwise-identical whatever it is batched with.
        """
        seeds_list = list(seeds_list)
        return [
            Measurement(
                test_score=float(self.pipeline.evaluate(winner.model, test)),
                valid_score=winner.valid_score,
                train_score=float(winner.train_score),
                hparams=dict(winner.hparams),
                seeds=seeds,
                n_fits=self.hpo_budget + 1,
                hpo_result=result,
            )
            for seeds, (result, winner, test) in zip(
                seeds_list, self._optimize_many(seeds_list, self.hpo_budget)
            )
        ]
