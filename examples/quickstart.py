"""Quickstart: variance-aware comparison of two learning pipelines.

The recommended workflow of the paper in ~40 lines:

1. pick a task and build two benchmark processes (algorithm A and B on the
   same finite dataset);
2. decide how many paired runs you need with Noether's formula;
3. run the paired measurements with every learning-procedure source of
   variance randomized (the affordable ``FixHOptEst``-style protocol);
4. conclude with the probability-of-outperforming test: the result must be
   both statistically significant (CI_min > 0.5) and meaningful
   (CI_max > gamma = 0.75).

Heavy studies go through the measurement engine (:mod:`repro.engine`):
pass ``n_jobs`` to any study driver to fan the independent measurements
out over workers, and attach a ``MeasurementCache`` to replay repeated
(seeds, hyperparameters) configurations without refitting.  Seeds are
pre-drawn before execution, so results are bitwise identical for any
``n_jobs`` at a fixed ``random_state``::

    from repro import MeasurementCache, StudyRunner
    from repro.core.variance import variance_decomposition_study

    cache = MeasurementCache(cache_dir=".repro-cache")  # optional persistence
    runner = StudyRunner(process_a, n_jobs=4, cache=cache)
    decomposition = variance_decomposition_study(
        process_a, n_seeds=50, runner=runner, random_state=0
    )
    print(cache.stats())                             # hits / misses / entries

Full paper experiments go through the unified Study API (:mod:`repro.api`):
describe a registered study with a declarative, JSON-round-trippable
``StudySpec`` and execute it through a ``Session``, which shares one
measurement cache and executor across every study it runs (see
``EXPERIMENTS.md`` for the catalogue of registered studies).  Seeds are
derived from scope paths (task / repetition), so a study run one task at
a time merges bitwise to ``session.run(spec)`` over all tasks — which is
how the distributed work queue may shard a suite member — and
``Session(cache_dir=...)`` persists measurements one file per content
hash so concurrent workers share a store without locks.  The same specs
run from the shell::

    python -m repro run spec.json --n-jobs 4 --cache-dir .repro-cache

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    BenchmarkProcess,
    Session,
    StudySpec,
    compare_pipelines,
    get_task,
    list_studies,
    minimum_sample_size,
)
from repro.api import merge_results


def study_api_demo() -> None:
    """The declarative route: one Session, many studies, one shared cache."""
    print(f"registered studies: {', '.join(list_studies())}\n")
    spec = StudySpec(
        study="variance",
        params={
            "task_names": ["entailment"],
            "n_seeds": 10,
            "include_hpo": False,
            "dataset_size": 400,
        },
        n_jobs=2,
        random_state=0,
    )
    with Session() as session:
        result = session.run(spec)
        print(result.summary())
        # Re-running the same spec replays every measurement from the
        # session's shared cache — zero refits.
        replay = session.run(spec)
        print(
            f"\nreplay cache hits/misses: {replay.cache_stats['hits']}"
            f"/{replay.cache_stats['misses']} "
            f"(warm replay {replay.elapsed_seconds:.3f}s vs cold run "
            f"{result.elapsed_seconds:.3f}s)"
        )
        # Each task run on its own derives the same scope-addressed seeds
        # the two-task run assigns to it, so the parts merge to the whole
        # bitwise — and, in this session, replay straight from the cache.
        tasks = ["entailment", "sentiment"]
        full = session.run(spec.with_params(task_names=tasks))
        parts = [session.run(spec.with_params(task_names=[t])) for t in tasks]
        assert merge_results(parts).to_rows() == full.to_rows()
        refits = sum(part.cache_stats["misses"] for part in parts)
        print(f"\nper-task runs merge to the two-task run ({refits} refits)")
    # Specs round-trip through JSON, so studies are launchable from config
    # files, queues, or `python -m repro run spec.json`.
    assert StudySpec.from_json(spec.to_json()) == spec


def main() -> None:
    task = get_task("entailment")
    dataset = task.make_dataset(random_state=42, n_samples=600)

    # Algorithm A: a 32-unit MLP.  Algorithm B: a much smaller model.
    process_a = BenchmarkProcess(
        dataset, task.make_pipeline(hidden_sizes=(32,), n_epochs=10), hpo_budget=10
    )
    process_b = BenchmarkProcess(
        dataset, task.make_pipeline(hidden_sizes=(2,), n_epochs=10), hpo_budget=10
    )

    k = minimum_sample_size(gamma=0.75, alpha=0.05, beta=0.05)
    print(f"Noether minimum sample size for gamma=0.75: {k} paired runs")

    report, scores = compare_pipelines(process_a, process_b, k=k, random_state=0)

    print(f"mean score A: {scores.scores_a.mean():.3f}   mean score B: {scores.scores_b.mean():.3f}")
    print(
        f"P(A > B) = {report.p_a_gt_b:.3f} "
        f"[{report.ci_low:.3f}, {report.ci_high:.3f}] (gamma = {report.gamma})"
    )
    print(f"conclusion: {report.conclusion.value}")
    if report.meaningful:
        print("-> algorithm A is a meaningful improvement over B on this task.")
    elif report.significant:
        print("-> A is better than B, but not by a meaningful margin.")
    else:
        print("-> the observed difference could be explained by noise alone.")

    print()
    study_api_demo()


if __name__ == "__main__":
    main()
