"""Experiment E12 — MHC-analogue model comparison (Tables 8 and 9).

The paper's Appendix D.5 compares a single shallow MLP (their MLP-MHC model
and NetMHCpan4) with an ensemble of shallow MLPs (MHCflurry) on the
peptide-binding task, reporting AUC and Pearson correlation.  The analogue
benchmark trains a single MLP regressor and an ensemble MLP regressor on
the synthetic peptide-binding task and reports the same two columns, plus
the variance-aware comparison the paper recommends instead of a bare table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.api.registry import register_study
from repro.core.benchmark import BenchmarkProcess
from repro.core.pairing import paired_measurements
from repro.core.significance import SignificanceReport, probability_of_outperforming_test
from repro.data.tasks import get_task
from repro.engine import MeasurementCache, ParallelExecutor, StudyRunner
from repro.pipelines.ensemble import EnsembleMLPRegressorPipeline
from repro.pipelines.metrics import binary_auc, pearson_correlation
from repro.pipelines.mlp import MLPRegressorPipeline
from repro.utils.rng import SeedScope
from repro.utils.tables import format_table

__all__ = ["MHCComparisonResult", "run_mhc_model_comparison"]

#: Affinity above which a peptide is considered a binder, used to compute an
#: AUC column analogous to Table 8.
BINDER_THRESHOLD = 0.5


@dataclass
class MHCComparisonResult:
    """Per-model AUC/PCC rows plus the recommended statistical comparison."""

    model_rows: List[dict] = field(default_factory=list)
    comparison: Optional[SignificanceReport] = None

    def rows(self) -> List[dict]:
        """Rows of the Table 8 analogue."""
        return list(self.model_rows)

    def report(self) -> str:
        """Plain-text rendition of Table 8 plus the P(A>B) verdict."""
        table = format_table(
            self.model_rows,
            columns=["model", "auc", "pcc", "r2"],
            title="Table 8 (analogue) — model comparison on the peptide-binding task",
        )
        if self.comparison is None:
            return table
        verdict = (
            f"P(ensemble > single) = {self.comparison.p_a_gt_b:.3f} "
            f"[{self.comparison.ci_low:.3f}, {self.comparison.ci_high:.3f}] "
            f"-> {self.comparison.conclusion.value}"
        )
        return table + "\n" + verdict


def _scores_on_test(model_predict, dataset) -> Dict[str, float]:
    """AUC / PCC / R² of predictions against the dataset targets."""
    predictions = model_predict(dataset.X)
    binders = (dataset.y >= BINDER_THRESHOLD).astype(int)
    if binders.min() == binders.max():
        auc = float("nan")
    else:
        auc = binary_auc(binders, predictions)
    pcc = pearson_correlation(dataset.y, predictions)
    ss_res = float(np.sum((dataset.y - predictions) ** 2))
    ss_tot = float(np.sum((dataset.y - np.mean(dataset.y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 0.0
    return {"auc": auc, "pcc": pcc, "r2": r2}


@register_study(
    "mhc_comparison",
    artefact="Tables 8, 9",
    size_params=("n_samples", "n_ensemble_members", "k_pairs"),
    smoke_params={"n_samples": 200, "k_pairs": 3},
    benchmark="benchmarks/bench_table8_mhc_models.py",
)
def run_mhc_model_comparison(
    *,
    n_samples: int = 800,
    n_ensemble_members: int = 3,
    k_pairs: int = 10,
    n_jobs: int = 1,
    backend: str = "thread",
    cache: Optional[MeasurementCache] = None,
    executor: Optional[ParallelExecutor] = None,
    random_state=None,
) -> MHCComparisonResult:
    """Compare the single-MLP and ensemble-MLP models on peptide binding.

    Parameters
    ----------
    n_samples:
        Size of the synthetic peptide-binding dataset.
    n_ensemble_members:
        Number of members in the MHCflurry-style ensemble.
    k_pairs:
        Number of paired runs used for the recommended P(A>B) comparison.
    n_jobs:
        Workers for the paired measurements — the study's hot loop; the
        shared seed bundles are pre-drawn, so the comparison is identical
        for any value.
    backend:
        Executor backend when no ``executor`` is supplied.
    cache:
        Optional measurement cache shared across studies.
    executor:
        Pre-built executor shared across studies (overrides
        ``n_jobs``/``backend``).
    random_state:
        Seed, generator or :class:`~repro.utils.rng.SeedScope`; the table
        fit, each paired run and the bootstrap test draw their seeds from
        dedicated scope paths.
    """
    scope = SeedScope.from_state(random_state)
    task = get_task("peptide-binding")
    dataset = task.make_dataset(
        random_state=scope.child("dataset").rng(), n_samples=n_samples
    )
    single = MLPRegressorPipeline(n_epochs=10)
    ensemble = EnsembleMLPRegressorPipeline(
        n_members=n_ensemble_members, n_epochs=10
    )
    process_single = BenchmarkProcess(dataset, single, hpo_budget=5)
    process_ensemble = BenchmarkProcess(dataset, ensemble, hpo_budget=5)
    result = MHCComparisonResult()
    # Table rows: one representative fit per model on a common split.
    seeds = scope.child("table").bundle()
    for name, process in (("MLP-MHC (single)", process_single), ("MHCflurry-like (ensemble)", process_ensemble)):
        train, valid, test = process.split(seeds)
        outcome = process.pipeline.fit(train, process.pipeline.default_hparams(), seeds, valid=valid)
        if name.startswith("MLP-MHC"):
            predict = outcome.model.predict
        else:
            predict = lambda X, members=outcome.model: np.mean(
                [member.predict(X) for member in members], axis=0
            )
        scores = _scores_on_test(predict, test)
        result.model_rows.append({"model": name, **scores})
    # Recommended comparison: paired runs + probability of outperforming,
    # fanned out through the measurement engine (the study's hot loop).
    paired = paired_measurements(
        process_ensemble,
        process_single,
        k_pairs,
        randomize="all",
        hparams_a=ensemble.default_hparams(),
        hparams_b=single.default_hparams(),
        run_hpo=False,
        random_state=scope.child("pairs"),
        runner_a=StudyRunner(
            process_ensemble, executor=executor, n_jobs=n_jobs, backend=backend, cache=cache
        ),
        runner_b=StudyRunner(
            process_single, executor=executor, n_jobs=n_jobs, backend=backend, cache=cache
        ),
    )
    result.comparison = probability_of_outperforming_test(
        paired.scores_a, paired.scores_b, random_state=scope.child("significance").rng()
    )
    return result
