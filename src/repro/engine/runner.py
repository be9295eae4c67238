"""The measurement engine facade used by every study driver.

:class:`StudyRunner` binds a :class:`~repro.core.benchmark.BenchmarkProcess`
to a :class:`~repro.engine.executor.ParallelExecutor` and an optional
:class:`~repro.engine.cache.MeasurementCache`, and executes batches of
:class:`WorkItem` (a ``(seeds, hparams[, with_hpo])`` triple) with

* **deterministic ordering** — results come back in submission order, so a
  parallel run is bitwise identical to a serial one provided callers
  pre-draw their seeds before submitting (which every study in
  :mod:`repro.core.variance`, :mod:`repro.core.estimators` and
  :mod:`repro.experiments` now does);
* **within-batch deduplication** — identical work items are executed once;
* **cross-batch memoization** — when a cache is attached, previously seen
  keys are replayed without refitting.

Usage::

    runner = StudyRunner(process, n_jobs=4, cache=MeasurementCache())
    items = [WorkItem(seeds=bundle) for bundle in bundles]   # pre-drawn!
    scores = runner.run_scores(items)
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.engine.cache import MeasurementCache, _canonical_value, measurement_key
from repro.engine.executor import ParallelExecutor
from repro.engine.shm import DatasetHandle, shared_arena
from repro.telemetry.instruments import RUNNER_BATCH_SECONDS, RUNNER_ITEMS
from repro.utils.rng import SeedBundle, SeedScope

if TYPE_CHECKING:  # pragma: no cover - runtime import would cycle through
    # repro.core.__init__ -> estimators -> this module; annotations only.
    from repro.core.benchmark import BenchmarkProcess, Measurement

__all__ = ["WorkItem", "StudyRunner", "ensure_runner"]


@dataclass(frozen=True)
class WorkItem:
    """One unit of measurement work: a seed assignment plus hyperparameters.

    Attributes
    ----------
    seeds:
        Seed bundle fixing every stochastic element of the measurement.
    hparams:
        Hyperparameters for the final fit; ``None`` uses the pipeline
        defaults.  Ignored when ``with_hpo`` is true (HOpt selects them).
    with_hpo:
        When true the measurement includes its own HOpt run
        (:meth:`~repro.core.benchmark.BenchmarkProcess.measure_many_with_hpo`).
    scope_path:
        Provenance label: the :class:`~repro.utils.rng.SeedScope` path the
        seeds were derived from (e.g. ``task=entailment/rep=3``), when the
        item came from scope-addressed derivation.  Purely descriptive —
        it never enters the measurement key (identical seeds are the same
        measurement regardless of which scope addressed them).
    """

    seeds: SeedBundle
    hparams: Optional[Mapping[str, Any]] = None
    with_hpo: bool = False
    scope_path: Optional[str] = None

    @classmethod
    def from_scope(
        cls,
        scope: SeedScope,
        *,
        hparams: Optional[Mapping[str, Any]] = None,
        with_hpo: bool = False,
    ) -> "WorkItem":
        """Build an item whose full seed bundle is derived from ``scope``.

        The bundle is a pure function of the scope path, so the same item
        is produced no matter which shard (or host) constructs it — the
        property behind merged shards equalling ``run(spec)``.
        """
        return cls(
            seeds=scope.bundle(),
            hparams=hparams,
            with_hpo=with_hpo,
            scope_path=scope.path_str(),
        )


class _BoundExecute:
    """Picklable ``(item, ...) -> [Measurement, ...]`` closure over the process.

    A task is up to ``batch_size`` HPO items, which go through
    :meth:`BenchmarkProcess.measure_many_with_hpo`, or up to
    ``batch_size`` items sharing their hyperparameters, which go through
    :meth:`BenchmarkProcess.measure_many` — the grouping
    :meth:`StudyRunner._plan_batches` guarantees.  Both fit their items in
    stacked kernel passes.

    When a ``dataset_handle`` is attached (process backend), pickling
    strips the dataset from the payload and ships the shared-memory handle
    instead; unpickling in a pool worker re-attaches the published
    segments — the dataset arrays never cross the pipe.
    """

    __slots__ = ("process", "dataset_handle")

    def __init__(
        self,
        process: BenchmarkProcess,
        dataset_handle: Optional[DatasetHandle] = None,
    ) -> None:
        self.process = process
        self.dataset_handle = dataset_handle

    def __call__(self, task: Tuple[WorkItem, ...]) -> List[Measurement]:
        seeds_list = [item.seeds for item in task]
        if task[0].with_hpo:
            return self.process.measure_many_with_hpo(seeds_list)
        return self.process.measure_many(seeds_list, task[0].hparams)

    def __getstate__(self) -> dict:
        if self.dataset_handle is None:
            return {"process": self.process, "handle": None}
        lean = copy.copy(self.process)
        lean.dataset = None
        return {"process": lean, "handle": self.dataset_handle}

    def __setstate__(self, state: dict) -> None:
        self.process = state["process"]
        self.dataset_handle = state["handle"]
        if self.dataset_handle is not None and self.process.dataset is None:
            self.process.dataset = self.dataset_handle.materialize()


class StudyRunner:
    """Execute batches of measurements, optionally cached and in parallel.

    Parameters
    ----------
    process:
        The benchmark process every work item runs against.
    executor:
        Pre-built :class:`ParallelExecutor`; overrides ``n_jobs``/``backend``.
    n_jobs:
        Worker count when no executor is given (``1`` = serial, ``-1`` =
        all cores).
    backend:
        ``"thread"`` (default, no pickling constraints) or ``"process"``
        (true parallelism for pure-Python fits) when no executor is given.
    cache:
        Optional :class:`MeasurementCache` for cross-batch memoization.
    batch_size:
        Group up to this many compatible work items into one dispatched
        task, executed through the pipeline's vectorized multi-seed
        kernel: items with the same hyperparameters and different seeds,
        or items that each run their own HOpt (each proposal round of a
        task's HOpt runs is one stacked fit).  Defaults to the executor's
        ``batch_size`` hint (``1`` = one-item tasks).  Results are
        bitwise-identical at every batch size.
    """

    def __init__(
        self,
        process: BenchmarkProcess,
        *,
        executor: Optional[ParallelExecutor] = None,
        n_jobs: int = 1,
        backend: str = "thread",
        cache: Optional[MeasurementCache] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        self.process = process
        self.executor = (
            executor if executor is not None else ParallelExecutor(n_jobs, backend=backend)
        )
        self.cache = cache
        if batch_size is None:
            batch_size = getattr(self.executor, "batch_size", 1)
        self.batch_size = max(1, int(batch_size))

    # ------------------------------------------------------------------
    # Measurement batches
    # ------------------------------------------------------------------
    def run(self, items: Sequence[WorkItem]) -> List[Measurement]:
        """Execute every item; results are returned in submission order.

        With a cache attached, keys already stored are replayed and each
        distinct missing key is computed exactly once per batch.  With
        ``batch_size > 1``, compatible cache-miss items are grouped into
        multi-measurement tasks (vectorized fits, one dispatch per group).
        Every computed miss is committed through one ``put_many`` call per
        run: one write-through and store GC bookkeeping pass for the batch.
        """
        items = list(items)
        if not items:
            return []
        if self.cache is None:
            measurements = self._execute_items(items)
            RUNNER_ITEMS.labels(source="fit").inc(len(items))
            return measurements

        keys = [
            measurement_key(
                self.process, item.seeds, item.hparams, with_hpo=item.with_hpo
            )
            for item in items
        ]
        results: Dict[str, Measurement] = {}
        pending: Dict[str, WorkItem] = {}
        for key, item in zip(keys, items):
            if key in results or key in pending:
                self.cache.record_hit()
                continue
            cached = self.cache.get(key)
            if cached is not None:
                results[key] = cached
            else:
                pending[key] = item
        if pending:
            computed = self._execute_items(list(pending.values()))
            pairs = list(zip(pending, computed))
            self.cache.put_many(pairs)
            results.update(pairs)
        RUNNER_ITEMS.labels(source="fit").inc(len(pending))
        RUNNER_ITEMS.labels(source="cache").inc(len(items) - len(pending))
        return [results[key] for key in keys]

    # ------------------------------------------------------------------
    # Dispatch: items grouped into batched tasks
    # ------------------------------------------------------------------
    def _dataset_handle(self) -> Optional[DatasetHandle]:
        """Publish the dataset to shared memory for process-backend runs."""
        if getattr(self.executor, "effective_backend", "serial") != "process":
            return None
        dataset = getattr(self.process, "dataset", None)
        if dataset is None or not hasattr(dataset, "X"):
            return None
        return shared_arena().publish(dataset)

    def _execute_items(self, items: List[WorkItem]) -> List[Measurement]:
        handle = self._dataset_handle()
        started = time.perf_counter()
        try:
            tasks, positions = self._plan_batches(items)
            weights = [len(task) for task in tasks]
            grouped = self.executor.map(
                _BoundExecute(self.process, handle), tasks, weights=weights
            )
            ordered: List[Optional[Measurement]] = [None] * len(items)
            for task_positions, measurements in zip(positions, grouped):
                for position, measurement in zip(task_positions, measurements):
                    ordered[position] = measurement
            return ordered  # type: ignore[return-value]
        finally:
            RUNNER_BATCH_SECONDS.observe(time.perf_counter() - started)

    def _plan_batches(
        self, items: Sequence[WorkItem]
    ) -> Tuple[List[Tuple[WorkItem, ...]], List[Tuple[int, ...]]]:
        """Group items into dispatchable tasks of up to ``batch_size``.

        Items sharing canonical hyperparameters (and not running HPO) are
        grouped — exactly the compatibility the vectorized kernel needs.
        HPO items form one group of their own: HOpt chooses each item's
        hyperparameters, and a task of them fits each proposal round of
        all its runs in one call.  Grouping preserves first-seen order,
        and the returned positions map each task's measurements back to
        submission order.
        """
        groups: Dict[Optional[str], List[int]] = {}
        for position, item in enumerate(items):
            key = None if item.with_hpo else repr(_canonical_value(item.hparams))
            groups.setdefault(key, []).append(position)
        tasks: List[Tuple[WorkItem, ...]] = []
        positions: List[Tuple[int, ...]] = []
        for members in groups.values():
            for start in range(0, len(members), self.batch_size):
                chunk = members[start : start + self.batch_size]
                tasks.append(tuple(items[position] for position in chunk))
                positions.append(tuple(chunk))
        return tasks, positions

    def run_scores(self, items: Sequence[WorkItem]) -> np.ndarray:
        """Execute every item and return the test scores as a float array."""
        return np.array([m.test_score for m in self.run(items)], dtype=float)

    # ------------------------------------------------------------------
    # Generic fan-out (simulation drivers, custom studies)
    # ------------------------------------------------------------------
    def map(self, fn: Callable, items: Sequence) -> List:
        """Run an arbitrary pure function over items on this runner's executor."""
        return self.executor.map(fn, items)


def ensure_runner(
    runner: Optional[StudyRunner],
    process: "BenchmarkProcess",
    *,
    n_jobs: int = 1,
) -> StudyRunner:
    """Return a runner bound to ``process``, building a default on demand.

    A runner bound to a *different* process would silently measure that
    other process (its cache keys and fits both come from ``runner.process``),
    so a mismatch is an error rather than a footgun.
    """
    if runner is None:
        return StudyRunner(process, n_jobs=n_jobs)
    if runner.process is not process:
        raise ValueError(
            "runner is bound to a different BenchmarkProcess than the one "
            "under study; build a StudyRunner for this process (caches can "
            "be shared between runners instead)"
        )
    return runner
