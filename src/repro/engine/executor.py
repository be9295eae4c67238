"""Deterministic fan-out of independent work items.

:class:`ParallelExecutor` wraps :mod:`concurrent.futures` behind the
one-method interface the studies need: *map a pure function over a list
and return results in submission order*.  Three backends are supported:

``"serial"``
    Plain loop in the calling thread (also used whenever ``n_jobs == 1``),
    guaranteed identical to the historical inline loops.
``"thread"``
    :class:`~concurrent.futures.ThreadPoolExecutor`; zero pickling
    requirements, best when the work releases the GIL (NumPy-heavy fits).
``"process"``
    :class:`~concurrent.futures.ProcessPoolExecutor`; the function and
    items must be picklable, best for pure-Python training loops.

Pool lifetime
-------------
A process-backend executor forks one pool of ``n_jobs`` children at its
first process map and reuses it for every later map, so a session pays
for the fork once, not once per batch.  :meth:`ParallelExecutor.close`
shuts the pool down and waits for the children to exit; a map after
``close`` forks a new pool.  An executor nobody closes (such as a
:class:`~repro.engine.runner.StudyRunner`'s default one) holds the only
reference to its pool, so collecting it lets the pool's manager thread
shut the children down.  A child that dies breaks the pool: the map in
flight raises :class:`~concurrent.futures.process.BrokenProcessPool`,
the pool is dropped, and the next map forks a new one.  The thread
backend still builds a pool per map; threads are cheap to start.

Because every study pre-draws its seeds *before* submitting work, results
are bitwise independent of the backend, the number of workers, the
completion order and the age of the pool.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import queue
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.telemetry.instruments import (
    EXECUTOR_DISPATCH_SECONDS,
    EXECUTOR_ITEMS,
    EXECUTOR_QUEUE_DEPTH,
)

__all__ = [
    "CancellableExecutor",
    "ParallelExecutor",
    "StudyCancelled",
    "resolve_n_jobs",
]


class StudyCancelled(RuntimeError):
    """Raised inside a work fan-out once its cancellation event is set."""


#: Slots per executor, one per process map in flight; a map beyond this
#: many concurrent ones waits until a slot frees up.
_SLOT_COUNT = 64

#: The executor's shared slot array, installed in every pool child by
#: :func:`_install_live_maps`: each slot holds the token of the map that
#: owns it while that map is live, and 0 once it is cancelled or over.  A
#: plain module global: each child owns its interpreter, and the parent
#: never reads it.
_LIVE_MAPS = None


def _install_live_maps(slots) -> None:
    """Pool initializer: remember the executor's shared slot array."""
    global _LIVE_MAPS
    _LIVE_MAPS = slots


def _while_live(fn, slot, token, item):
    """Per-item guard run inside pool children: run ``item`` only while its
    map is live.  A cancelled process map thus stops between items instead
    of draining to the chunk boundary, and chunks still queued when a map
    ends early (cancelled or failed) are skipped, not run."""
    if _LIVE_MAPS[slot] != token:
        raise StudyCancelled("batch cancelled mid-run")
    return fn(item)


T = TypeVar("T")
R = TypeVar("R")

_BACKENDS = ("serial", "thread", "process")


def _drain(
    results: Iterable[R],
    tick: Optional[Callable[[], None]],
    weights: Optional[Sequence[int]] = None,
    item_done: Optional[Callable[[], None]] = None,
) -> List[R]:
    """Collect a lazy result stream, invoking ``tick`` as each item lands.

    Pool ``map`` iterators yield in submission order from the caller's
    process, so the tick always runs caller-side — no pickling concerns.
    Without ``weights`` the tick fires exactly once per completed item;
    with ``weights`` it fires ``weights[i]`` times for item ``i`` — one
    tick per *measurement* when a batched task carries B of them, keeping
    progress bars and stall-steal heartbeats measurement-granular.
    ``item_done`` (telemetry accounting) fires exactly once per item
    regardless of weights.
    """
    if tick is None and item_done is None:
        return list(results)
    collected: List[R] = []
    for index, result in enumerate(results):
        collected.append(result)
        if item_done is not None:
            item_done()
        if tick is not None:
            for _ in range(weights[index] if weights is not None else 1):
                tick()
    return collected


def resolve_n_jobs(n_jobs: int) -> int:
    """Translate an ``n_jobs`` knob into a concrete worker count.

    ``-1`` (or any negative value) means "all available cores"; values are
    clamped to at least 1.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs < 0:
        return max(1, os.cpu_count() or 1)
    return max(1, n_jobs)


class ParallelExecutor:
    """Map a function over items with a fixed worker budget.

    Parameters
    ----------
    n_jobs:
        Number of workers; ``1`` (default) runs serially in the caller,
        ``-1`` uses every available core.
    backend:
        ``"serial"``, ``"thread"`` (default for ``n_jobs > 1``) or
        ``"process"``.
    batch_size:
        Measurement-batching hint carried on the executor so it reaches
        every :class:`~repro.engine.runner.StudyRunner` built on it without
        widening driver signatures: runners group compatible work items
        into tasks of up to this many measurements.  ``1`` (default)
        disables batching.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        *,
        backend: str = "thread",
        batch_size: int = 1,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.backend = backend
        if int(batch_size) < 1:
            raise ValueError("batch_size must be a positive integer")
        self.batch_size = int(batch_size)
        # Process backend state: the pool, forked at the first process map,
        # and the slot array shared with its children (one slot per map in
        # flight).  Nothing else may reference the pool (see the module
        # notes on pool lifetime).
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._slots = None
        self._free_slots: "queue.SimpleQueue[int]" = queue.SimpleQueue()
        for slot in range(_SLOT_COUNT):
            self._free_slots.put(slot)
        self._tokens = itertools.count(1)

    @property
    def effective_backend(self) -> str:
        """The backend actually used (serial whenever one worker suffices)."""
        if self.n_jobs <= 1:
            return "serial"
        return self.backend

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T] | Iterable[T],
        *,
        cancel: Optional[threading.Event] = None,
        tick: Optional[Callable[[], None]] = None,
        weights: Optional[Sequence[int]] = None,
    ) -> List[R]:
        """Apply ``fn`` to every item; results keep the submission order.

        The process backend runs every map on the executor's one pool
        (see the module notes), sized ``n_jobs`` and split evenly into
        chunks of ``ceil(len(items) / min(n_jobs, len(items)))`` items, so
        the function's bound state is pickled once per chunk; several
        threads may map on one executor at once.

        When ``cancel`` is given, the fan-out stops as soon as the event is
        observed set: always before the batch starts, and per item on
        every backend.  The process backend cannot see a
        :class:`threading.Event` across pickling.  Each process map takes
        a slot in a small array shared with the pool children and marks
        it live; a relay thread clears the slot when the event fires, and
        a per-item guard in the child checks the slot before every call —
        in-flight items finish, queued items of the same map do not, and
        other maps on the pool run on.  The map does not wait for its
        relay to exit.
        Cancellation raises :class:`StudyCancelled` rather than returning
        partial results, so a caller can never mistake a truncated batch
        for a complete one.

        ``tick`` is an optional zero-argument liveness callback invoked in
        the *calling* process once per completed item, on every backend —
        the progress signal distributed workers couple their lease
        heartbeats to.  It must be cheap and must not raise.

        ``weights`` optionally declares how many measurements each item
        carries (batched tasks); ``tick`` then fires that many times per
        completed item so liveness stays measurement-granular.
        """
        items = list(items)
        if cancel is not None and cancel.is_set():
            raise StudyCancelled("batch cancelled before it started")
        if not items:
            return []
        if weights is not None and len(weights) != len(items):
            raise ValueError("weights must align one-to-one with items")
        backend = self.effective_backend
        # Telemetry: queue depth rises by the whole submission and falls
        # per completed item; dispatch latency is the full map wall time.
        # Pure side channel — no effect on ordering, seeding or results.
        depth = EXECUTOR_QUEUE_DEPTH.labels(backend=backend)
        done_counter = EXECUTOR_ITEMS.labels(backend=backend)
        completed = 0

        def _item_done() -> None:
            nonlocal completed
            completed += 1
            done_counter.inc()
            depth.dec()

        depth.inc(len(items))
        started = time.perf_counter()
        try:
            return self._dispatch(
                fn, items, backend, cancel, tick, weights, _item_done
            )
        finally:
            depth.dec(len(items) - completed)
            EXECUTOR_DISPATCH_SECONDS.labels(backend=backend).observe(
                time.perf_counter() - started
            )

    def close(self) -> None:
        """Shut the process pool down and wait for its children to exit.

        Idempotent.  The executor stays usable: the next process map forks
        a new pool.
        """
        self._drop_pool(self._pool, wait=True)

    def _process_pool(self) -> ProcessPoolExecutor:
        """The executor's process pool, forked at first use."""
        with self._lock:
            if self._pool is None:
                if self._slots is None:
                    self._slots = multiprocessing.RawArray("q", _SLOT_COUNT)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_jobs,
                    initializer=_install_live_maps,
                    initargs=(self._slots,),
                )
            return self._pool

    def _drop_pool(self, pool: Optional[ProcessPoolExecutor], *, wait: bool) -> None:
        """Shut ``pool`` down if it is still this executor's pool."""
        with self._lock:
            if pool is None or pool is not self._pool:
                return
            self._pool = None
        pool.shutdown(wait=wait)

    def _relay(self, cancel: threading.Event, slot: int, token: int) -> None:
        """Clear a map's slot once its cancel event fires; stop with the map.

        The slot is cleared under the lock and only while it still holds
        the map's token, so a relay that wakes late cannot cancel the
        slot's next owner.
        """
        while self._slots[slot] == token:
            if cancel.wait(0.02):
                with self._lock:
                    if self._slots[slot] == token:
                        self._slots[slot] = 0
                return

    def _dispatch(
        self,
        fn: Callable[[T], R],
        items: List[T],
        backend: str,
        cancel: Optional[threading.Event],
        tick: Optional[Callable[[], None]],
        weights: Optional[Sequence[int]],
        item_done: Callable[[], None],
    ) -> List[R]:
        if backend == "serial" or len(items) == 1:
            results = []
            for index, item in enumerate(items):
                if cancel is not None and cancel.is_set():
                    raise StudyCancelled("batch cancelled mid-run")
                results.append(fn(item))
                item_done()
                if tick is not None:
                    for _ in range(weights[index] if weights is not None else 1):
                        tick()
            return results
        workers = min(self.n_jobs, len(items))
        if backend == "thread":
            guarded = fn
            if cancel is not None:
                def guarded(item, _fn=fn, _cancel=cancel):
                    if _cancel.is_set():
                        raise StudyCancelled("batch cancelled mid-run")
                    return _fn(item)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return _drain(pool.map(guarded, items), tick, weights, item_done)
        chunksize = -(-len(items) // workers)
        pool = self._process_pool()
        slot = self._free_slots.get()
        token = next(self._tokens)
        with self._lock:
            self._slots[slot] = token
        guarded = functools.partial(_while_live, fn, slot, token)
        try:
            try:
                results = pool.map(guarded, items, chunksize=chunksize)
            except BrokenProcessPool:
                # A child died while the pool sat idle, so none of this map
                # ran: fork a new pool and submit again.
                self._drop_pool(pool, wait=False)
                pool = self._process_pool()
                results = pool.map(guarded, items, chunksize=chunksize)
            if cancel is not None:
                threading.Thread(
                    target=self._relay,
                    args=(cancel, slot, token),
                    name="repro-cancel-relay",
                    daemon=True,
                ).start()
            return _drain(results, tick, weights, item_done)
        except BrokenProcessPool:
            self._drop_pool(pool, wait=False)
            raise
        finally:
            self._slots[slot] = 0  # the map is over: its queued chunks skip
            self._free_slots.put(slot)


class CancellableExecutor:
    """Executor view binding a cancellation event to every ``map`` call.

    Wraps any :class:`ParallelExecutor` behind the same one-method
    interface, so studies (and the :class:`~repro.engine.runner.StudyRunner`
    batches they submit) become cancellable without threading an event
    through every driver signature: :meth:`repro.api.session.Session.run`
    hands a study with a ``cancel_event`` a wrapped view of the shared
    executor, and whoever owns the event — a worker whose lease was
    stolen, a deleted service study job — sets it: the next batch (or, on
    serial/thread backends, the next item) raises :class:`StudyCancelled`
    instead of running on.

    ``tick`` optionally binds a per-item liveness callback the same way
    (see :meth:`ParallelExecutor.map`); either binding may be ``None``.
    """

    __slots__ = ("inner", "cancel_event", "tick")

    def __init__(
        self,
        inner: ParallelExecutor,
        cancel_event: Optional[threading.Event] = None,
        *,
        tick: Optional[Callable[[], None]] = None,
    ) -> None:
        self.inner = inner
        self.cancel_event = cancel_event
        self.tick = tick

    @property
    def n_jobs(self) -> int:
        return self.inner.n_jobs

    @property
    def backend(self) -> str:
        return self.inner.backend

    @property
    def effective_backend(self) -> str:
        return self.inner.effective_backend

    @property
    def batch_size(self) -> int:
        return getattr(self.inner, "batch_size", 1)

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T] | Iterable[T],
        *,
        weights: Optional[Sequence[int]] = None,
    ) -> List[R]:
        return self.inner.map(
            fn, items, cancel=self.cancel_event, tick=self.tick, weights=weights
        )
