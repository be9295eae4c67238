"""Shared-memory dataset arena for the process backend.

The process backend used to re-pickle the whole :class:`BenchmarkProcess`
— dataset arrays included — into every pool chunk.  For batched studies
the dataset is by far the largest part of that payload, and it never
changes between tasks.  This module publishes a dataset's arrays into
:mod:`multiprocessing.shared_memory` segments exactly once per parent
process and ships only a tiny picklable :class:`DatasetHandle` with each
task; pool workers attach to the segments on first unpickle (and cache the
attachment), so the dataset bytes cross the process boundary zero times.

Lifecycle
---------
The arena owns the segments it created.  Each published dataset's
segments are released when the dataset object is garbage-collected
(``weakref.finalize``) and, as a crash/cancel backstop, when the
interpreter exits — ``weakref.finalize`` callbacks run at exit even if
:meth:`SharedDatasetArena.close` was never called.  Worker-side
attachments deliberately skip ``resource_tracker`` registration
(Python < 3.13 registers attachments just like creations, and pool
workers share the parent's tracker process), so a worker exiting — or
being SIGKILLed — neither unlinks the parent's segments nor corrupts the
tracker's create-side bookkeeping.

A pool child lives as long as its executor — a whole session — so it keeps
at most ``_MAX_ATTACHED`` datasets attached, evicting the least recently
used when it attaches another.  Attaching happens while a task is
unpickled, between tasks, so an evicted dataset is normally unreferenced
and its segments close at once.  Closing unmaps the memory whether or not
an array still views it (NumPy holds no buffer export that would make it
raise ``BufferError``), so segments whose arrays are still alive stay
mapped until a later eviction finds them gone.  Closing only unmaps the
child's view; the parent unlinks.
"""

from __future__ import annotations

import contextlib
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["DatasetHandle", "SharedDatasetArena", "shared_arena"]


@contextlib.contextmanager
def _untracked_attach() -> Iterator[None]:
    """Attach to segments without registering them with the resource tracker.

    Before Python 3.13 (``track=False``), attaching registers the segment
    with the resource tracker just like creating does.  Pool workers share
    the parent's tracker process, so a worker that registered and then
    unregistered an attachment would erase the *parent's* registration —
    and the parent's eventual ``unlink`` would double-unregister, spewing
    ``KeyError`` tracebacks from the tracker.  Suppressing registration at
    attach time keeps tracker bookkeeping exactly create-side.
    """
    try:
        from multiprocessing import resource_tracker
    except Exception:  # pragma: no cover - platform without a tracker
        yield
        return
    original = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register
    try:
        yield
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class DatasetHandle:
    """Picklable pointer to a dataset published in shared memory.

    Carries everything needed to rebuild the :class:`Dataset` zero-copy on
    the other side of a pool boundary, including the content-address token
    so attached datasets never re-hash their arrays for cache keys.
    """

    x_name: str
    y_name: str
    x_shape: Tuple[int, ...]
    y_shape: Tuple[int, ...]
    x_dtype: str
    y_dtype: str
    name: str
    task_type: str
    token: Optional[str] = None

    def materialize(self) -> Dataset:
        """Attach to the segments and rebuild the dataset (cached per process)."""
        return _attach(self)


#: Most datasets one process keeps attached (see the module notes).
_MAX_ATTACHED = 8

#: Per-process attachment cache, least recently used first: a worker
#: re-attaching the same segments for every task would pay a syscall per
#: task.  Each entry holds the dataset, weak references to the two arrays
#: built on the segments (every view of them keeps them alive) and the
#: segments.  Keyed by the whole handle, so a segment name the parent
#: reuses after an unlink never maps to a stale attachment of other data.
_ATTACHED: "OrderedDict[DatasetHandle, Tuple[Dataset, Tuple[weakref.ref, ...], Tuple[shared_memory.SharedMemory, ...]]]" = OrderedDict()

#: Evicted ``(array references, segments)`` whose arrays were still alive
#: at eviction; their segments close at a later eviction.
_EVICTED: List[Tuple[Tuple[weakref.ref, ...], Tuple[shared_memory.SharedMemory, ...]]] = []


def _attach(handle: DatasetHandle) -> Dataset:
    cached = _ATTACHED.get(handle)
    if cached is not None:
        _ATTACHED.move_to_end(handle)
        return cached[0]
    with _untracked_attach():
        segment_x = shared_memory.SharedMemory(name=handle.x_name)
        segment_y = shared_memory.SharedMemory(name=handle.y_name)
    X = np.ndarray(handle.x_shape, dtype=np.dtype(handle.x_dtype), buffer=segment_x.buf)
    y = np.ndarray(handle.y_shape, dtype=np.dtype(handle.y_dtype), buffer=segment_y.buf)
    dataset = Dataset(X, y, name=handle.name, task_type=handle.task_type)
    if handle.token is not None:
        # Pre-seed the content-address memo so measurement_key never
        # re-hashes the shared arrays.
        object.__setattr__(dataset, "_repro_content_token", handle.token)
    _ATTACHED[handle] = (
        dataset,
        (weakref.ref(X), weakref.ref(y)),
        (segment_x, segment_y),
    )
    _evict()
    return dataset


def _evict() -> None:
    """Drop the least recently used attachments beyond ``_MAX_ATTACHED``,
    then close the segments of every evicted one whose arrays are gone."""
    while len(_ATTACHED) > _MAX_ATTACHED:
        # Index, don't unpack: a name bound to the dataset would keep it,
        # and so its arrays, alive.
        _EVICTED.append(_ATTACHED.popitem(last=False)[1][1:])
    still_viewed = []
    for arrays, segments in _EVICTED:
        if any(array() is not None for array in arrays):
            still_viewed.append((arrays, segments))
            continue
        for segment in segments:
            segment.close()
    _EVICTED[:] = still_viewed


def _release_segments(names: Tuple[str, str]) -> None:
    """Close and unlink owned segments; idempotent and crash-tolerant."""
    for name in names:
        try:
            with _untracked_attach():
                segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - raced unlink
            pass


class SharedDatasetArena:
    """Publish datasets into shared memory, once per dataset per process."""

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[DatasetHandle, Tuple[shared_memory.SharedMemory, ...]]] = {}
        self._finalizers: Dict[int, weakref.finalize] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def publish(self, dataset: Dataset) -> DatasetHandle:
        """Return a handle for ``dataset``, copying it into shared memory once.

        The segments live until the dataset object is garbage-collected or
        the interpreter exits, whichever comes first.
        """
        key = id(dataset)
        entry = self._entries.get(key)
        if entry is not None:
            return entry[0]
        from repro.engine.cache import _dataset_token

        X = np.ascontiguousarray(dataset.X)
        y = np.ascontiguousarray(dataset.y)
        segment_x = shared_memory.SharedMemory(create=True, size=max(1, X.nbytes))
        segment_y = shared_memory.SharedMemory(create=True, size=max(1, y.nbytes))
        np.ndarray(X.shape, dtype=X.dtype, buffer=segment_x.buf)[...] = X
        np.ndarray(y.shape, dtype=y.dtype, buffer=segment_y.buf)[...] = y
        handle = DatasetHandle(
            x_name=segment_x.name,
            y_name=segment_y.name,
            x_shape=X.shape,
            y_shape=y.shape,
            x_dtype=X.dtype.str,
            y_dtype=y.dtype.str,
            name=dataset.name,
            task_type=dataset.task_type,
            token=_dataset_token(dataset),
        )
        self._entries[key] = (handle, (segment_x, segment_y))
        # Release when the dataset goes away; finalize also fires at
        # interpreter exit, covering crash/cancel paths that skip close().
        self._finalizers[key] = weakref.finalize(
            dataset, self._release, key, (segment_x.name, segment_y.name)
        )
        return handle

    def _release(self, key: int, names: Tuple[str, str]) -> None:
        entry = self._entries.pop(key, None)
        self._finalizers.pop(key, None)
        if entry is None:
            _release_segments(names)
            return
        for segment in entry[1]:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - raced unlink
                pass

    def close(self) -> None:
        """Release every published segment now (idempotent)."""
        for key in list(self._entries):
            handle, _ = self._entries[key]
            finalizer = self._finalizers.get(key)
            if finalizer is not None:
                finalizer.detach()
            self._release(key, (handle.x_name, handle.y_name))


#: Process-wide arena shared by every StudyRunner in this interpreter.
_ARENA = SharedDatasetArena()


def shared_arena() -> SharedDatasetArena:
    """The process-wide dataset arena."""
    return _ARENA
