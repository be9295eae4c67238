"""The :class:`Session` facade: one front door for every study.

A session owns the engine resources that should be *shared* across study
runs — one :class:`~repro.engine.cache.MeasurementCache` (so a variance
study warms the cache for the normality study that re-measures the same
seeds, and a repeated spec replays without a single refit) and one
:class:`~repro.engine.executor.ParallelExecutor` per ``(n_jobs, backend)``
configuration — and executes declarative
:class:`~repro.api.spec.StudySpec` descriptions through the registry::

    from repro.api import Session, StudySpec

    with Session(n_jobs=4) as session:
        spec = StudySpec(study="variance",
                         params={"task_names": ["entailment"], "n_seeds": 20},
                         random_state=0)
        result = session.run(spec)            # blocking
        print(result.summary())

        handle = session.submit(spec.replace(study="hpo_curves", params={
            "task_names": ["entailment", "sentiment"], "budget": 10,
        }))                                   # streaming, futures-based
        for partial in handle:                # shards as they complete
            print(partial.summary())
        merged = handle.result()              # deterministic shard order

``run`` is synchronous and deterministic: for a fixed ``random_state`` the
result is bitwise-identical at any ``n_jobs``.  ``submit`` returns a
:class:`StudyHandle` immediately; when the study's registry entry declares
a shardable parameter (e.g. ``task_names``), each element runs as its own
future, *keyed by its scope path* (``task_names=sentiment``).  Because
every driver derives its seeds from scope paths rather than a shared rng
stream, ``submit(spec).result()`` is bitwise-identical to ``run(spec)``:
each shard computes exactly the measurements the monolithic run would
have assigned to its key, and the handle merges shard results in the
spec's canonical key order, never in submission or completion order.

For concurrent persistence, pass ``cache_dir=...``: the shared cache then
writes one file per measurement hash (atomic rename), so any number of
sessions — or shard workers inside one session — can share the directory
without lock contention.

A process-backend executor keeps one pool of worker processes for the
session's lifetime, so every study and batch after the first reuses warm
children; :meth:`Session.close` (or leaving the ``with`` block) shuts the
pools down.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ThreadPoolExecutor,
    wait,
)
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.api.registry import StudyInfo, get_study
from repro.api.results import StudyResult, SuiteResult, merge_results
from repro.api.spec import StudySpec, SuiteSpec
from repro.engine.cache import (
    MeasurementCache,
    atomic_write,
    dump_fidelity,
    load_fidelity,
)
from repro.engine.executor import CancellableExecutor, ParallelExecutor, StudyCancelled
from repro.telemetry.tracing import suite_trace_context, trace

__all__ = ["Session", "StudyHandle"]

#: Signature of the optional per-spec progress callback of
#: :meth:`Session.run_suite`: ``(event, name, index, total, result)`` with
#: ``event`` one of ``"start"`` / ``"done"`` / ``"replay"`` (``result`` is
#: ``None`` for ``"start"``).  Replays are reported in schedule order on
#: every path; the distributed coordinator reports them first (``0..k-1``).
SuiteProgress = Callable[[str, str, int, int, Optional[StudyResult]], None]

#: Signature of the optional per-shard progress callback of
#: :meth:`Session.submit`: ``(event, key, index, total, result)`` with
#: ``event`` one of ``"start"`` / ``"done"``, ``key`` the shard's scope
#: path (``""`` for an unsharded study), ``index`` the shard's canonical
#: position and ``total`` the shard count.  ``result`` is ``None`` for
#: ``"start"``.  Callbacks fire on the submit-pool threads and must be
#: cheap and non-raising — the progress plumbing the study service rides
#: for live event streaming.
StudyProgress = Callable[[str, str, int, int, Optional[StudyResult]], None]

class _RunCacheView:
    """Per-run counting proxy over a shared :class:`MeasurementCache`.

    Storage (and therefore replay) is fully delegated to the shared cache;
    only the hit/miss/eviction counters are kept locally, so a run's
    ``cache_stats`` attributes exactly its own lookups — and the evictions
    its own puts caused — even when other studies (e.g. concurrent
    ``submit`` shards) use the same cache.
    """

    __slots__ = ("inner", "hits", "misses", "evictions")

    def __init__(self, inner: MeasurementCache) -> None:
        self.inner = inner
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str):
        measurement = self.inner.get(key)
        if measurement is None:
            self.misses += 1
        else:
            self.hits += 1
        return measurement

    def record_hit(self) -> None:
        self.inner.record_hit()
        self.hits += 1

    def put_many(self, pairs) -> None:
        self.evictions += self.inner.put_many(pairs)


class StudyHandle:
    """Future-like handle on a submitted study.

    Shards are keyed by their scope path (``<shard_param>=<value>``, e.g.
    ``task_names=sentiment``).  Iterating the handle yields per-shard
    :class:`StudyResult` objects in *completion* order (streaming);
    :meth:`result` blocks and merges by *key*, in the spec's canonical
    order — so the merged result is a pure function of the spec, not of
    scheduling.
    """

    def __init__(
        self,
        spec: StudySpec,
        shards: "Mapping[str, StudySpec]",
        futures: "Mapping[str, Future[StudyResult]]",
        cancel_event: Optional[threading.Event] = None,
    ) -> None:
        self.spec = spec
        self.shards = OrderedDict(shards)
        self._futures: "OrderedDict[str, Future[StudyResult]]" = OrderedDict(futures)
        self._cancel_event = cancel_event

    def __len__(self) -> int:
        return len(self._futures)

    @property
    def keys(self) -> List[str]:
        """Shard keys in canonical (spec) order."""
        return list(self._futures)

    def done(self) -> bool:
        """True when every shard has finished (or was cancelled)."""
        return all(future.done() for future in self._futures.values())

    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancel_event is not None and self._cancel_event.is_set()

    def cancel(self) -> bool:
        """Stop the study: unstarted shards never run, in-flight shards
        abort at their next batch boundary (:class:`StudyCancelled`).

        Returns ``True`` when every shard was cancelled before starting;
        ``False`` when at least one shard was already running (it will
        stop between batches, not instantly) or already finished.
        """
        if self._cancel_event is not None:
            self._cancel_event.set()
        return all([future.cancel() for future in self._futures.values()])

    def result(self, timeout: Optional[float] = None) -> StudyResult:
        """Block for every shard and return the merged study result.

        Shard results merge in canonical key order (the order of the
        shard values in the spec), so the merged result is independent of
        submission interleaving and completion order.  Raises
        :class:`~repro.engine.executor.StudyCancelled` (or
        :class:`concurrent.futures.CancelledError`) if the handle was
        cancelled.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        parts: "Dict[str, StudyResult]" = {}
        for key, future in self._futures.items():
            remaining = None if deadline is None else deadline - time.monotonic()
            parts[key] = future.result(timeout=remaining)
        return merge_results([parts[key] for key in self.keys], spec=self.spec)

    def partial_results(self) -> Iterator[StudyResult]:
        """Yield shard results as they complete (streaming order).

        Cancelled shards are skipped rather than raised, so a consumer
        can drain whatever completed before a :meth:`cancel`.
        """
        for _key, result in self.completed():
            yield result

    def completed(self) -> Iterator[Tuple[str, StudyResult]]:
        """Yield ``(key, result)`` pairs as shards complete.

        The keyed twin of :meth:`partial_results`: completion order, but
        each result arrives with its scope-path identity, so a consumer
        (e.g. the study service's event stream) can attribute progress to
        shards without re-deriving the sharding.  Cancelled shards are
        skipped, exactly like :meth:`partial_results`.
        """
        pending = {future: key for key, future in self._futures.items()}
        while pending:
            finished, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for future in finished:
                key = pending.pop(future)
                try:
                    yield key, future.result()
                except (CancelledError, StudyCancelled):
                    continue

    __iter__ = partial_results


class Session:
    """Shared-engine execution context for registered studies.

    The session owns its executors, one per ``(n_jobs, backend)``.  On the
    process backend each executor forks its worker pool at its first
    batch and reuses it for every later batch of every study, including
    concurrent :meth:`submit` shards, until :meth:`close`.

    Parameters
    ----------
    n_jobs:
        Default worker count for specs that do not set their own.
    backend:
        Default executor backend (``"serial"``, ``"thread"``, ``"process"``).
        ``None`` (default) resolves to ``"process"`` when ``batch_size > 1``
        — batched studies ship one task per measurement group and publish
        their datasets to shared memory, so process pools pay near-zero
        pickling overhead — and ``"thread"`` otherwise.
    batch_size:
        Group up to this many compatible measurements (same pipeline and
        hyperparameters, different seeds; or measurements that each run
        their own HOpt, whose proposal rounds then fit together) into one
        dispatched task executed through the pipeline's vectorized
        multi-seed kernel.  ``1`` (default) disables batching.  Results
        are bitwise-identical at any ``batch_size``.
    cache:
        An existing :class:`~repro.engine.cache.MeasurementCache` to share,
        or ``None`` (default) for one the session builds from the
        arguments below.
    cache_dir:
        Directory for per-key persistence of the shared cache: one file
        per measurement hash, written atomically, so concurrent shard
        workers — and other sessions sharing the directory — persist
        without lock contention and warm each other transparently.  A
        path naming an existing regular file, such as a whole-cache
        pickle from an older version, raises ``ValueError``.  Mutually
        exclusive with ``cache``.
    max_cache_entries, max_cache_bytes:
        LRU budgets applied when the session builds its own cache, keeping
        long sessions bounded in memory (entries evicted from memory stay
        on disk when ``cache_dir`` is used).
    max_store_entries, max_store_bytes:
        Garbage-collection budgets for the ``cache_dir`` object tree
        (require ``cache_dir``): every write-through is followed by an
        LRU-by-last-use prune of the on-disk store, so a long-lived shared
        directory stays bounded (see
        :meth:`repro.engine.cache.FileStore.gc`).
    max_concurrent_studies:
        Worker threads backing :meth:`submit` (each study still fans its
        own measurements out over the parallel executor).
    """

    def __init__(
        self,
        *,
        n_jobs: int = 1,
        backend: Optional[str] = None,
        batch_size: int = 1,
        cache: Optional[MeasurementCache] = None,
        cache_dir: Optional[str] = None,
        max_cache_entries: Optional[int] = None,
        max_cache_bytes: Optional[int] = None,
        max_store_entries: Optional[int] = None,
        max_store_bytes: Optional[int] = None,
        max_concurrent_studies: int = 2,
    ) -> None:
        if cache is not None:
            if not isinstance(cache, MeasurementCache):
                raise TypeError(
                    "cache must be a MeasurementCache or None; pass a store "
                    "directory as cache_dir"
                )
            if cache_dir is not None:
                raise ValueError(
                    "cache and cache_dir are mutually exclusive; pass one "
                    "shared cache configuration"
                )
            if max_store_entries is not None or max_store_bytes is not None:
                raise ValueError(
                    "store budgets cannot be applied to an externally built "
                    "cache; construct the MeasurementCache with them instead"
                )
            self.cache = cache
        else:
            self.cache = MeasurementCache(
                cache_dir=cache_dir,
                max_entries=max_cache_entries,
                max_bytes=max_cache_bytes,
                max_store_entries=max_store_entries,
                max_store_bytes=max_store_bytes,
            )
        if int(batch_size) < 1:
            raise ValueError("batch_size must be a positive integer")
        self.batch_size = int(batch_size)
        self.n_jobs = n_jobs
        # Batched studies default to the process backend: the shared-memory
        # dataset arena makes its per-task pickling cost negligible and the
        # vectorized kernels release the GIL poorly under threads.
        if backend is None:
            backend = "process" if self.batch_size > 1 else "thread"
        self.backend = backend
        self.max_concurrent_studies = max(1, int(max_concurrent_studies))
        self._executors: Dict[Tuple[int, str, int], ParallelExecutor] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._studies_run = 0
        self._closed = False
        # Spans persist beside the store this session works against; the
        # telemetry/ namespace is invisible to the store GC, and the sink
        # is a pure side channel (results never depend on it).
        if self.cache.cache_dir is not None:
            trace.attach_sink(self.cache.cache_dir)

    # ------------------------------------------------------------------
    # Resource management
    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the submit pool and the executors' process pools.

        Submitted studies finish first; then every executor's worker
        processes exit.  Entries were written through at put time, so
        close writes nothing to any per-key store.  Blocking :meth:`run`
        stays usable after close; its first process batch forks a new pool.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
            executors = list(self._executors.values())
        if pool is not None:
            pool.shutdown(wait=True)
        for executor in executors:
            executor.close()

    def _executor_for(self, n_jobs: int, backend: str) -> ParallelExecutor:
        with self._lock:
            key = (n_jobs, backend, self.batch_size)
            if key not in self._executors:
                self._executors[key] = ParallelExecutor(
                    n_jobs, backend=backend, batch_size=self.batch_size
                )
            return self._executors[key]

    def _submit_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed Session")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_concurrent_studies,
                    thread_name_prefix="repro-session",
                )
            return self._pool

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _resolve(self, spec: Union[StudySpec, str]) -> Tuple[StudySpec, StudyInfo]:
        if isinstance(spec, str):
            spec = StudySpec(study=spec)
        info = get_study(spec.study)
        info.validate_params(spec.params)
        return spec, info

    def run(
        self,
        spec: Union[StudySpec, str],
        *,
        cancel_event: Optional[threading.Event] = None,
        tick: Optional[Callable[[], None]] = None,
    ) -> StudyResult:
        """Execute ``spec`` synchronously and return its uniform result.

        The study runs through the measurement engine with this session's
        shared cache and executor; for a fixed ``spec.random_state`` the
        result is bitwise-identical at any ``n_jobs``/``backend``, and
        (for shardable studies) to the merged result of :meth:`submit`.
        ``cancel_event`` binds an external abort switch to the run (a
        distributed worker trips it when its lease is stolen): setting it
        raises :class:`~repro.engine.executor.StudyCancelled` at the next
        item or batch boundary.  ``tick`` is an optional per-work-item
        liveness callback (see :meth:`ParallelExecutor.map`) — distributed
        workers couple lease renewal to it so a hung study loses its
        lease while a slow-but-alive one keeps it.
        """
        return self._execute(spec, cancel_event, tick)

    def _execute(
        self,
        spec: Union[StudySpec, str],
        cancel_event: Optional[threading.Event] = None,
        tick: Optional[Callable[[], None]] = None,
    ) -> StudyResult:
        spec, info = self._resolve(spec)
        n_jobs = self.n_jobs if spec.n_jobs is None else spec.n_jobs
        backend = self.backend if spec.backend is None else spec.backend
        cache = self.cache if spec.cache else None
        # The view counts this run's own lookups and evictions, so
        # cache_stats stays exact even when concurrent submit() shards
        # share the cache.
        view = None if cache is None else _RunCacheView(cache)
        executor: Any = self._executor_for(n_jobs, backend)
        if cancel_event is not None or tick is not None:
            # Bind this submission's cancellation event to every batch the
            # study fans out, so cancel() stops in-flight work between
            # batches, not just shards that have not started.  The tick
            # rides the same wrapper: one view, both liveness directions.
            executor = CancellableExecutor(executor, cancel_event, tick=tick)
        kwargs: Dict[str, Any] = dict(spec.params)
        kwargs.update(
            n_jobs=n_jobs,
            backend=backend,
            cache=view,
            executor=executor,
            random_state=spec.random_state,
        )
        start = time.perf_counter()
        with trace.span(
            f"study/{spec.study}",
            study=spec.study,
            n_jobs=n_jobs,
            backend=backend,
        ) as span:
            raw = info.func(**kwargs)
            if view is not None:
                span.set_attr("cache_hits", view.hits)
                span.set_attr("cache_misses", view.misses)
        elapsed = time.perf_counter() - start
        cache_stats: Dict[str, float] = {}
        if view is not None:
            cache_stats = {
                "hits": view.hits,
                "misses": view.misses,
                "entries": cache.stats()["entries"],
                "evictions": view.evictions,
            }
        with self._lock:
            self._studies_run += 1
        return StudyResult(
            raw,
            spec=spec,
            artefact=info.artefact,
            elapsed_seconds=elapsed,
            cache_stats=cache_stats,
        )

    def submit(
        self,
        spec: Union[StudySpec, str],
        *,
        progress: Optional[StudyProgress] = None,
    ) -> StudyHandle:
        """Launch ``spec`` asynchronously and return a :class:`StudyHandle`.

        When the registry declares a shardable parameter for the study and
        the spec supplies more than one value for it, each value becomes
        its own future keyed by its scope path (``<axis>=<value>``).
        Partial results stream as shards complete; because every driver
        derives seeds from scope paths, :meth:`StudyHandle.result` — which
        merges by key in canonical spec order — is bitwise-identical to
        :meth:`run` of the same spec.

        ``progress`` (see :data:`StudyProgress`) streams per-shard
        ``"start"``/``"done"`` events from the submit-pool threads as the
        execution proceeds — a push-based alternative to polling
        :meth:`StudyHandle.completed`.  Concurrent ``submit`` calls are
        safe: each submission gets its own cancellation event and progress
        stream, and all share the session's bounded pool and cache.
        """
        spec, info = self._resolve(spec)
        shards = self._shard(spec, info)
        pool = self._submit_pool()
        cancel_event = threading.Event()
        total = len(shards)
        futures: "OrderedDict[str, Future[StudyResult]]" = OrderedDict()
        for index, (key, shard) in enumerate(shards.items()):
            futures[key] = pool.submit(
                self._run_shard,
                shard,
                key,
                index,
                total,
                cancel_event,
                progress,
            )
        return StudyHandle(spec, shards, futures, cancel_event=cancel_event)

    def _run_shard(
        self,
        shard: StudySpec,
        key: str,
        index: int,
        total: int,
        cancel_event: threading.Event,
        progress: Optional[StudyProgress],
    ) -> StudyResult:
        if progress is not None:
            progress("start", key, index, total, None)
        with trace.span(
            f"shard/{key or shard.study}", study=shard.study, shard=key
        ):
            result = self._execute(shard, cancel_event)
        if progress is not None:
            progress("done", key, index, total, result)
        return result

    @staticmethod
    def _shard(spec: StudySpec, info: StudyInfo) -> "OrderedDict[str, StudySpec]":
        """Split ``spec`` along its shard axis, keyed by scope path.

        The key (``task_names=sentiment``) is the shard's identity: the
        handle merges by key in the order the values appear in the spec
        (the canonical order), so scheduling never influences the merged
        result.
        """
        axis = info.shard_param
        if axis is not None and axis in spec.params:
            values = spec.params[axis]
            if isinstance(values, list) and len(values) > 1:
                keys = [f"{axis}={value}" for value in values]
                # Duplicate shard values would collapse onto one key; run
                # the spec whole instead so rows appear once per occurrence.
                if len(set(keys)) == len(keys):
                    return OrderedDict(
                        (key, spec.with_params(**{axis: [value]}))
                        for key, value in zip(keys, values)
                    )
        return OrderedDict({"": spec})

    # ------------------------------------------------------------------
    # Suites
    # ------------------------------------------------------------------
    @classmethod
    def for_suite(cls, suite: SuiteSpec, **overrides: Any) -> "Session":
        """Build a session configured from a suite manifest.

        The suite's shared session fields (``n_jobs``, ``backend``,
        ``cache_dir``, store budgets) become the session configuration;
        keyword ``overrides`` (any :class:`Session` parameter) win over
        the manifest — how the CLI applies ``--n-jobs``/``--cache-dir``.
        """
        config: Dict[str, Any] = {
            "cache_dir": suite.cache_dir,
            "max_store_entries": suite.max_store_entries,
            "max_store_bytes": suite.max_store_bytes,
        }
        if suite.n_jobs is not None:
            config["n_jobs"] = suite.n_jobs
        if suite.backend is not None:
            config["backend"] = suite.backend
        config.update(overrides)
        return cls(**config)

    def run_suite(
        self,
        suite: SuiteSpec,
        *,
        resume: bool = False,
        progress: Optional[SuiteProgress] = None,
    ) -> SuiteResult:
        """Execute every member of ``suite`` in this process.

        All members share this session's measurement cache and executors,
        so overlapping studies warm each other and a repeated spec replays
        without refitting.  The whole manifest is validated against the
        registry before anything runs, so a malformed suite fails fast.
        Members execute in :meth:`~repro.api.spec.SuiteSpec.schedule_order`
        — dependencies first, then priority (higher first), manifest
        position as the tie-break — so cheap high-priority members land
        early; results still assemble in canonical manifest order.

        With a ``cache_dir`` bound, each completed member writes a resume
        record under ``<cache_dir>/suites/<suite.name>/`` (rows + report
        as JSON, plus a best-effort pickle of the native result object);
        ``resume=True`` replays members whose record matches their current
        spec *without re-running them* (zero cache lookups — a changed
        spec invalidates its record and runs again), restoring
        study-specific native attributes whenever the pickle is usable.
        ``progress`` is called per member (``"start"``/``"done"``/
        ``"replay"``) for streaming feedback.

        To share the work with ``python -m repro worker`` processes
        instead, drive the suite through the durable work queue with
        ``Coordinator(session, suite, ...).run(...)`` (see
        :mod:`repro.sched`): the same records, the same manifest and
        bitwise-identical rows.
        """
        start = time.perf_counter()
        records_dir, replayed = self._replay_suite(suite, resume)
        results: "Dict[str, StudyResult]" = {}
        total = len(suite)
        # The same deterministic root the distributed path uses, so
        # ``repro trace --suite`` renders one coherent tree either way.
        with trace.span(
            f"suite/{suite.name}",
            context=suite_trace_context(suite.name),
            suite=suite.name,
            role="in-process",
            members=total,
        ):
            for index, name in enumerate(suite.schedule_order()):
                if name in replayed:
                    results[name] = replayed[name]
                    if progress is not None:
                        progress("replay", name, index, total, results[name])
                    continue
                if progress is not None:
                    progress("start", name, index, total, None)
                results[name] = self._run_suite_member(suite, name, records_dir)
                if progress is not None:
                    progress("done", name, index, total, results[name])
        return self._finish_suite(
            suite, records_dir, results, time.perf_counter() - start
        )

    def _run_suite_member(
        self, suite: SuiteSpec, name: str, records_dir: Optional[str]
    ) -> StudyResult:
        """Run one member under a ``member/<name>`` span in the suite's
        trace, then write its completion record (with a records_dir)."""
        spec = suite[name]
        with trace.span(
            f"member/{name}",
            parent=suite_trace_context(suite.name),
            suite=suite.name,
            member=name,
            study=spec.study,
        ):
            result = self._execute(spec)
        if records_dir is not None:
            self._write_suite_record(records_dir, name, result)
        return result

    def _suite_records_dir(self, suite: SuiteSpec) -> Optional[str]:
        """Completion records live inside the per-key store directory."""
        if self.cache.cache_dir is None:
            return None
        return os.path.join(self.cache.namespace("suites"), suite.name)

    def _replay_suite(
        self, suite: SuiteSpec, resume: bool
    ) -> Tuple[Optional[str], "Dict[str, StudyResult]"]:
        """Validate ``suite``; return its records directory (``None``
        without a cache_dir) and, with ``resume``, the members whose record
        matches their spec, in schedule order.  Each replay records an
        instant ``replay/<name>`` span under the suite's trace root."""
        suite.validate()
        records_dir = self._suite_records_dir(suite)
        replayed: "Dict[str, StudyResult]" = {}
        if not resume:
            return records_dir, replayed
        if records_dir is None:
            raise ValueError(
                "resume replays completion records from the per-key store "
                "and therefore requires a cache_dir"
            )
        context = suite_trace_context(suite.name)
        for name in suite.schedule_order():
            result = self._load_suite_result(records_dir, name, suite[name])
            if result is None:
                continue
            replayed[name] = result
            with trace.span(
                f"replay/{name}",
                parent=context,
                suite=suite.name,
                member=name,
                cached=True,
            ):
                pass
        return records_dir, replayed

    @staticmethod
    def _load_suite_result(
        records_dir: str, name: str, spec: StudySpec
    ) -> Optional[StudyResult]:
        """Rebuild one member's result from its completion record, at full
        fidelity when possible.

        The JSON record is authoritative: ``None`` (the member must
        re-run) when there is no record, when it is not valid UTF-8 JSON,
        or when it was written for a different version of the spec.  When
        the ``.raw.pkl`` written alongside it still matches the spec, the
        driver's native result object is restored so study-specific
        attributes survive resume; a stale or unreadable pickle silently
        degrades to the recorded rows + report.
        """
        try:
            with open(
                os.path.join(records_dir, f"{name}.json"), encoding="utf-8"
            ) as handle:
                record = json.load(handle)
        except (FileNotFoundError, ValueError):
            # ValueError covers JSONDecodeError and UnicodeDecodeError.
            return None
        if not isinstance(record, dict) or record.get("spec") != spec.to_dict():
            return None
        raw = load_fidelity(
            os.path.join(records_dir, f"{name}.raw.pkl"), spec.to_dict()
        )
        return StudyResult.from_record(record, raw=raw)

    @staticmethod
    def _write_suite_record(
        records_dir: str, name: str, result: StudyResult
    ) -> None:
        """Atomically persist one member's completion record, so a suite
        killed mid-run resumes from whatever finished.

        Alongside the JSON record (rows + report — always replayable), the
        driver's native result object is pickled best-effort, keyed to the
        spec it was computed for: resume then restores study-specific
        attributes (``.decompositions``, ``.curves``, ...) instead of a
        rows-only stand-in.  An unpicklable result just skips the pickle.
        """
        record = result.to_record()
        atomic_write(
            os.path.join(records_dir, f"{name}.json"),
            json.dumps(record, sort_keys=True).encode("utf-8"),
        )
        fidelity = dump_fidelity(record.get("spec"), result.raw)
        if fidelity is not None:
            atomic_write(
                os.path.join(records_dir, f"{name}.raw.pkl"), fidelity
            )

    def _finish_suite(
        self,
        suite: SuiteSpec,
        records_dir: Optional[str],
        results: "Mapping[str, StudyResult]",
        elapsed: float,
    ) -> SuiteResult:
        """Build the suite result and, with a ``records_dir``, atomically
        write its output manifest, which fixes ``repro report``'s order."""
        suite_result = SuiteResult(
            suite, results, elapsed_seconds=elapsed, cache=self.cache.stats()
        )
        if records_dir is not None:
            atomic_write(
                os.path.join(records_dir, "manifest.json"),
                suite_result.to_json(indent=2).encode("utf-8"),
            )
        return suite_result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def studies_run(self) -> int:
        """Number of study runs completed through this session."""
        return self._studies_run

    def stats(self) -> Dict[str, Any]:
        """Session-level counters plus the shared cache statistics."""
        return {
            "studies_run": self._studies_run,
            "cache": self.cache.stats(),
            "executors": sorted(self._executors),
        }
