"""Content-addressed memoization of benchmark measurements.

The studies of the paper re-run the *same* benchmark process under
thousands of seed configurations; many protocols (estimator repetitions,
detection sweeps, re-plots at a different ``k``) revisit identical
(pipeline, seeds, hyperparameters) triples.  :class:`MeasurementCache`
memoizes :meth:`repro.core.benchmark.BenchmarkProcess.measure` results
behind a content hash of everything that determines the outcome:

* the dataset (name, shape and raw bytes of ``X``/``y``);
* the pipeline name and resolved hyperparameters;
* the full explicit seed assignment of the :class:`SeedBundle`;
* whether HOpt runs inside the measurement (and, if so, which HOpt
  algorithm and budget).

Because a measurement is a pure function of that key, cached replay is
bitwise identical to recomputation.  The cache is thread-safe and can be
persisted to disk so expensive studies survive process restarts, as a
content-addressed per-key file store (``cache_dir=...``, backed by
:class:`FileStore`): one file per measurement hash, written through
atomically via temp-file + rename on every put, and nothing else.
Because every write lands under its own content hash and a key's value
is a pure function of the key, any number of shard workers — or whole
sessions, or eventually hosts — can share one ``cache_dir`` without
locks: the worst race is two writers racing to persist the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.telemetry.instruments import (
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_STORE_HITS,
    STORE_BYTES,
    STORE_ROUND_TRIPS,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.benchmark import BenchmarkProcess, Measurement
    from repro.utils.rng import SeedBundle

__all__ = [
    "FileStore",
    "MeasurementCache",
    "atomic_write",
    "dump_fidelity",
    "load_fidelity",
    "measurement_key",
]


def dump_fidelity(spec: Any, raw: Any) -> Optional[bytes]:
    """Pickle a native result object keyed to the spec that produced it.

    The one wire format for *full-fidelity* result records — suite resume
    records (``<name>.raw.pkl``) and distributed queue commits
    (``results/<id>.raw.pkl``) both use it, so a change here keeps every
    reader and writer in sync.  Returns ``None`` when the object does not
    pickle: fidelity is best-effort, the JSON record (rows + report)
    remains authoritative.
    """
    try:
        return pickle.dumps(
            {"spec": spec, "raw": raw}, protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception:  # noqa: BLE001 - fidelity is best-effort
        return None


def load_fidelity(path: str, spec: Any) -> Any:
    """Load a :func:`dump_fidelity` payload, gated on an exact spec match.

    Returns the native result object only when the pickle at ``path`` is
    readable *and* was written for exactly ``spec`` (its dict form) — a
    stale, foreign or corrupt pickle degrades to ``None`` so callers fall
    back to the JSON record.
    """
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except Exception:  # noqa: BLE001 - stale/foreign pickles degrade
        return None
    if not isinstance(payload, dict) or payload.get("spec") != spec:
        return None
    return payload.get("raw")


def atomic_write(target: str, blob: bytes) -> None:
    """Write ``blob`` to ``target`` via temp file + rename, so a reader
    never observes a torn file and concurrent writers both land whole.
    Parent directories are created on demand."""
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _dataset_token(dataset) -> str:
    """Content hash of a dataset, memoized on the instance.

    The memo lives on the (frozen, immutable) dataset object itself so it
    shares the dataset's lifetime — no module-level registry pinning large
    feature matrices in memory.  Recomputing the same token twice under a
    thread race is harmless, so no lock is needed.
    """
    token = getattr(dataset, "_repro_content_token", None)
    if token is not None:
        return token
    digest = hashlib.sha256()
    digest.update(dataset.name.encode("utf-8"))
    digest.update(dataset.task_type.encode("utf-8"))
    digest.update(str(dataset.X.shape).encode("utf-8"))
    digest.update(np.ascontiguousarray(dataset.X).tobytes())
    digest.update(np.ascontiguousarray(dataset.y).tobytes())
    token = digest.hexdigest()
    object.__setattr__(dataset, "_repro_content_token", token)
    return token


def _canonical_value(value: Any) -> str:
    """Lossless, deterministic serialization of one hparam/config value.

    ``repr`` alone is unsafe for array-likes (numpy elides long arrays
    with ``...``, so distinct configurations could share a key and replay
    the wrong measurement); arrays are serialized from their raw bytes.
    """
    if isinstance(value, np.ndarray):
        return (
            f"ndarray:{value.dtype.str}:{value.shape}:"
            f"{hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()}"
        )
    if isinstance(value, (list, tuple)):
        parts = ",".join(_canonical_value(v) for v in value)
        return f"{type(value).__name__}:[{parts}]"
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return repr(value)
    return f"{type(value).__name__}:{value!r}"


def measurement_key(
    process: "BenchmarkProcess",
    seeds: "SeedBundle",
    hparams: Optional[Mapping[str, Any]],
    *,
    with_hpo: bool = False,
) -> str:
    """Content hash identifying one measurement of ``process``.

    Two calls with equal keys are guaranteed to produce identical
    :class:`~repro.core.benchmark.Measurement` values (the benchmark
    process is deterministic given its seeds).
    """
    payload = {
        "dataset": _dataset_token(process.dataset),
        "pipeline": process.pipeline.name,
        "metric": process.pipeline.metric_name,
        "resampler": repr(process.resampler),
        "seeds": seeds.as_dict(),
        "hparams": None if hparams is None else {
            str(k): _canonical_value(v) for k, v in sorted(hparams.items())
        },
        "with_hpo": bool(with_hpo),
    }
    if with_hpo:
        algorithm = process.hpo_algorithm
        payload["hpo_algorithm"] = {
            "class": type(algorithm).__name__,
            # Scalar config attributes distinguish differently-tuned
            # instances of the same optimizer class.
            "config": {
                k: _canonical_value(v)
                for k, v in sorted(vars(algorithm).items())
                if isinstance(v, (bool, int, float, str, tuple, type(None)))
            },
        }
        payload["hpo_budget"] = process.hpo_budget
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


#: Age after which an orphaned ``.tmp`` file in the object tree counts as
#: crash debris that :meth:`FileStore.gc` may sweep; live writers rename
#: theirs within milliseconds.
TMP_GRACE_SECONDS = 3600.0


def _check_budgets(max_bytes: Optional[int], max_entries: Optional[int]) -> None:
    """Reject a zero or negative budget: it would empty the store."""
    if max_bytes is not None and max_bytes < 1:
        raise ValueError("max_bytes must be a positive integer or None")
    if max_entries is not None and max_entries < 1:
        raise ValueError("max_entries must be a positive integer or None")


class FileStore:
    """Content-addressed per-key persistence under one directory.

    Layout::

        <directory>/objects/<key[:2]>/<key>.pkl   # one pickle per key
        <directory>/<namespace>/...               # subsystem state (suites/,
                                                  # queue/) — see namespace()

    Writes go to a temp file in the destination directory followed by
    :func:`os.replace`, so a reader never observes a torn entry and
    concurrent writers of the same key are both atomic (identical bytes,
    last rename wins).  The object tree is the store's only record of
    what it holds: :meth:`keys` and :meth:`gc` scan it, and a file beside
    it (such as the ``index.json`` older versions wrote) is ignored.

    Parameters
    ----------
    directory:
        Root of the store (created on demand).
    max_bytes, max_entries:
        Optional garbage-collection budgets over the on-disk object tree.
        When set, a :meth:`write_many` that takes the tree over budget is
        followed by a :meth:`gc` pass that deletes least-recently-used
        entries (a :meth:`read` refreshes an entry's file mtime, so recency
        survives process restarts) until the tree is back within budget.
        The most recently used entry is never deleted, so a single
        oversized measurement still persists.  Budgets are enforced
        against the *scanned* tree, which makes them safe under concurrent
        writers sharing the directory: whichever writer finishes last
        prunes whatever the others landed.
    """

    def __init__(
        self,
        directory: str,
        *,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        _check_budgets(max_bytes, max_entries)
        self.directory = str(directory)
        if os.path.isfile(self.directory):
            raise ValueError(
                f"{self.directory!r} is a file: caches are per-key store "
                f"directories now (a whole-cache pickle from an older "
                f"version cannot be read); name a directory instead"
            )
        self._objects = os.path.join(self.directory, "objects")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        #: Entries this store instance's gc passes removed, for cache stats.
        self.removed_entries = 0
        # Running over-estimate of the tree (seeded by the first gc scan);
        # lets budgeted writes skip the full scan while clearly under
        # budget.  Guarded by a lock: one store may serve many threads.
        self._approx_bytes: Optional[int] = None
        self._approx_entries: Optional[int] = None
        self._gc_lock = threading.Lock()
        os.makedirs(self._objects, exist_ok=True)

    def _path(self, key: str) -> str:
        if not key or any(c in key for c in "/\\."):
            raise ValueError(f"invalid cache key {key!r}")
        return os.path.join(self._objects, key[:2], key + ".pkl")

    def namespace(self, name: str) -> str:
        """Directory for auxiliary subsystem state sharing this store root.

        Suites keep completion records under ``namespace("suites")`` and
        the distributed scheduler keeps its durable task queue under
        ``namespace("queue")`` — co-located with the measurements they
        describe, so one shared ``cache_dir`` (e.g. over a network
        filesystem) carries the whole execution state.  Namespaces are
        *invisible* to the measurement side of the store: :meth:`keys`,
        :meth:`gc` and the budgets only ever touch the ``objects`` tree,
        so queue records and completion markers are never garbage
        collected, and task state never counts against the byte budget.
        """
        if not name or name == "objects" or any(c in name for c in "/\\."):
            raise ValueError(f"invalid store namespace {name!r}")
        path = os.path.join(self.directory, name)
        os.makedirs(path, exist_ok=True)
        return path

    def read(self, key: str) -> Optional[Tuple["Measurement", int]]:
        """Load one entry and its pickled size in bytes, or ``None`` when
        absent (or unreadable).

        A successful read refreshes the entry's file mtime, so garbage
        collection (which evicts oldest-mtime first) observes true
        least-recently-*used* order, not write order.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                measurement = pickle.load(handle)
                size = handle.tell()
                STORE_ROUND_TRIPS.labels(op="read").inc()
                STORE_BYTES.labels(op="read").inc(size)
        except FileNotFoundError:
            return None
        except (EOFError, pickle.UnpicklingError):  # pragma: no cover - a
            # corrupted entry (e.g. disk full during a pre-atomic-write
            # crash) degrades to a recomputed miss, never an error.
            return None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced a concurrent gc
            pass
        return measurement, size

    def write(self, key: str, measurement: "Measurement") -> int:
        """Persist one entry, a batch of one; returns its pickled size."""
        return self.write_many([(key, measurement)])[0]

    def write_many(
        self, entries: Sequence[Tuple[str, "Measurement"]]
    ) -> List[int]:
        """Atomically persist N entries under one GC bookkeeping pass.

        The store's one write path.  Every entry is written first; then,
        when GC budgets are configured, one locked step adds the batch to
        a running over-estimate of the tree's size and, if that crosses a
        budget, runs a :meth:`gc` pass (which rescans precisely and
        prunes) protecting the batch's last key.  The tree therefore never
        stays over budget past the batch that pushed it there, and a store
        far under budget pays no tree scan per write.  Returns each
        entry's pickled size, in order.
        """
        entries = list(entries)
        if not entries:
            return []
        sizes: List[int] = []
        for key, measurement in entries:
            blob = pickle.dumps(measurement, protocol=pickle.HIGHEST_PROTOCOL)
            atomic_write(self._path(key), blob)
            sizes.append(len(blob))
        STORE_ROUND_TRIPS.labels(op="write").inc(len(sizes))
        STORE_BYTES.labels(op="write").inc(sum(sizes))
        if self.max_bytes is None and self.max_entries is None:
            return sizes
        with self._gc_lock:
            if self._approx_bytes is None:
                run_gc = True  # first budgeted write: seed from a real scan
            else:
                # Over-estimate: overwrites count at full size and other
                # writers' deletions are ignored, so for this instance's
                # own writes the estimate never undercounts the tree.
                self._approx_bytes += sum(sizes)
                self._approx_entries += len(sizes)
                run_gc = (
                    self.max_bytes is not None
                    and self._approx_bytes > self.max_bytes
                ) or (
                    self.max_entries is not None
                    and self._approx_entries > self.max_entries
                )
        if run_gc:
            self.gc(protect=entries[-1][0])
        return sizes

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def keys(self) -> List[str]:
        """Every key persisted in the store (scans the object tree)."""
        return [key for key, _, _, _ in self._scan()[0]]

    def __len__(self) -> int:
        return len(self.keys())

    @property
    def total_bytes(self) -> int:
        """Summed size of every persisted entry (scans the object tree)."""
        return sum(size for _, _, size, _ in self._scan()[0])

    def _scan(
        self,
    ) -> Tuple[List[Tuple[str, str, int, int]], List[Tuple[str, int]]]:
        """Walk the object tree once.

        Returns ``(entries, leftovers)`` where each entry is
        ``(key, path, size, mtime_ns)`` and each leftover is an orphaned
        ``.tmp`` file (``(path, mtime_ns)``) abandoned by a crashed
        writer.  Files deleted by a concurrent gc mid-scan are skipped.
        """
        entries: List[Tuple[str, str, int, int]] = []
        leftovers: List[Tuple[str, int]] = []
        try:
            shards = sorted(os.scandir(self._objects), key=lambda e: e.name)
        except FileNotFoundError:  # pragma: no cover - store root removed
            return entries, leftovers
        for shard in shards:
            if not shard.is_dir():
                continue
            for item in sorted(os.scandir(shard.path), key=lambda e: e.name):
                try:
                    stat = item.stat()
                except FileNotFoundError:
                    continue
                if item.name.endswith(".pkl"):
                    entries.append(
                        (item.name[: -len(".pkl")], item.path, stat.st_size,
                         stat.st_mtime_ns)
                    )
                elif item.name.endswith(".tmp"):
                    leftovers.append((item.path, stat.st_mtime_ns))
        return entries, leftovers

    def gc(
        self,
        *,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        protect: Optional[str] = None,
    ) -> Dict[str, int]:
        """Prune the object tree back within budget, LRU-by-last-use.

        ``max_bytes``/``max_entries`` override the configured budgets for
        this pass (``None`` uses the store's own; a store with no budgets
        only sweeps crash leftovers) and, like the constructor's, must be
        positive.  Eviction order is oldest file mtime first (reads refresh
        mtimes, so this is least-recently-used, not least-recently-written);
        the most recent entry is never deleted — and neither is ``protect``
        (the key a triggering write just persisted, immune even to an mtime
        tie on filesystems with coarse timestamps) — so one oversized
        measurement still persists.  Orphaned ``.tmp`` files older than
        :data:`TMP_GRACE_SECONDS` are swept.

        Returns a stats dict: entries/bytes removed by this pass, tmp files
        swept, and the surviving entry/byte counts.
        """
        _check_budgets(max_bytes, max_entries)
        budget_bytes = self.max_bytes if max_bytes is None else int(max_bytes)
        budget_entries = (
            self.max_entries if max_entries is None else int(max_entries)
        )
        entries, leftovers = self._scan()
        removed_tmp = 0
        cutoff = time.time_ns() - int(TMP_GRACE_SECONDS * 1e9)
        for path, mtime_ns in leftovers:
            if mtime_ns <= cutoff:
                try:
                    os.unlink(path)
                    removed_tmp += 1
                except FileNotFoundError:  # pragma: no cover - gc race
                    pass
        # Oldest mtime first; key breaks ties deterministically.
        entries.sort(key=lambda entry: (entry[3], entry[0]))
        total = sum(size for _, _, size, _ in entries)
        live = len(entries)
        removed = removed_bytes = 0
        # The newest entry is never a victim, so at least one survives.
        for key, path, size, _ in entries[:-1]:
            if not (
                (budget_entries is not None and live > budget_entries)
                or (budget_bytes is not None and total > budget_bytes)
            ):
                break
            if key == protect:
                continue
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - concurrent gc
                pass
            total -= size
            live -= 1
            removed += 1
            removed_bytes += size
        self.removed_entries += removed
        with self._gc_lock:
            # Re-seed the write-path estimate from the precise scan.
            self._approx_bytes = total
            self._approx_entries = live
        return {
            "removed_entries": removed,
            "removed_bytes": removed_bytes,
            "removed_tmp": removed_tmp,
            "entries": live,
            "bytes": total,
        }


class MeasurementCache:
    """Thread-safe, optionally disk-backed LRU store of measurements by key.

    Parameters
    ----------
    cache_dir:
        Optional directory for per-key persistence through a
        :class:`FileStore`, the only on-disk format.  Every
        :meth:`put_many` writes each entry through to its own file
        immediately (atomic rename), and a :meth:`get` miss falls back to
        the store before reporting a miss — so concurrent shard workers,
        sessions or hosts sharing the directory persist without lock
        contention and warm each other transparently, and a crash loses
        at most the batch in flight.
        ``None`` keeps the cache in memory only.
    max_entries:
        Optional capacity bound; exceeding it evicts the least recently
        *used* entries (a :meth:`get` hit refreshes an entry's recency, so
        hot keys survive long sessions).  ``None`` means unbounded.
    max_bytes:
        Optional memory budget.  Entry sizes are taken from their pickled
        representation; exceeding the budget evicts by the same LRU order.
        The most recent entry is never evicted, so a single oversized
        measurement still caches.  ``None`` disables size tracking.
    max_store_entries, max_store_bytes:
        Optional garbage-collection budgets for the on-disk object tree of
        a ``cache_dir`` store (they require one).  Unlike the in-memory
        budgets above — which only bound this process's working set —
        these bound the *shared persistent* store: every write-through is
        followed by an LRU prune of the directory (see
        :meth:`FileStore.gc`).

    Examples
    --------
    >>> cache = MeasurementCache()
    >>> runner = StudyRunner(process, cache=cache)          # doctest: +SKIP
    >>> runner.run(items); runner.run(items)                # doctest: +SKIP
    >>> cache.hit_rate                                      # doctest: +SKIP
    0.5
    """

    def __init__(
        self,
        *,
        cache_dir: Optional[str] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        max_store_entries: Optional[int] = None,
        max_store_bytes: Optional[int] = None,
    ) -> None:
        _check_budgets(max_bytes, max_entries)
        if (
            max_store_entries is not None or max_store_bytes is not None
        ) and cache_dir is None:
            raise ValueError(
                "max_store_entries/max_store_bytes bound the on-disk object "
                "tree and therefore require cache_dir"
            )
        self._store: "OrderedDict[str, Measurement]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        self._total_bytes = 0
        self._lock = threading.Lock()
        self.cache_dir = cache_dir
        self._file_store = (
            FileStore(
                cache_dir,
                max_bytes=max_store_bytes,
                max_entries=max_store_entries,
            )
            if cache_dir is not None
            else None
        )
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store_hits = 0

    @property
    def store(self) -> Optional[FileStore]:
        """The per-key :class:`FileStore` backend, when ``cache_dir`` is set."""
        return self._file_store

    def namespace(self, name: str) -> str:
        """Auxiliary state directory in the backing store (requires
        ``cache_dir``); see :meth:`FileStore.namespace`."""
        if self._file_store is None:
            raise ValueError(
                "namespaces live in the per-key file store and therefore "
                "require cache_dir"
            )
        return self._file_store.namespace(name)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._store:
                return True
        return self._file_store is not None and key in self._file_store

    def get(self, key: str) -> Optional["Measurement"]:
        """Return the cached measurement for ``key``, counting hit/miss.

        A hit marks the entry as most recently used.  With a ``cache_dir``
        bound, a memory miss falls back to the per-key file store (counted
        as a hit, tallied separately in ``store_hits``) before reporting a
        miss, so entries persisted by other workers replay transparently.
        """
        with self._lock:
            measurement = self._store.get(key)
            if measurement is not None:
                self.hits += 1
                CACHE_HITS.inc()
                self._store.move_to_end(key)
                return measurement
            if self._file_store is None:
                self.misses += 1
                CACHE_MISSES.inc()
                return None
        # File I/O happens outside the lock; racing a concurrent writer of
        # the same key is harmless (both persist identical bytes).  The
        # store reports the bytes it read, so a hit is not pickled again
        # to size it.
        loaded = self._file_store.read(key)
        with self._lock:
            if loaded is None:
                self.misses += 1
                CACHE_MISSES.inc()
                return None
            measurement, size = loaded
            self.hits += 1
            self.store_hits += 1
            CACHE_HITS.inc()
            CACHE_STORE_HITS.inc()
            self._insert(key, measurement, size)
            self._evict()
        return measurement

    def record_hit(self) -> None:
        """Count a hit served without a :meth:`get` lookup (e.g. a batch
        duplicate the runner resolved from its own working set)."""
        with self._lock:
            self.hits += 1
            CACHE_HITS.inc()

    def put(self, key: str, measurement: "Measurement") -> int:
        """Store one entry, a batch of one; returns the entries evicted."""
        return self.put_many([(key, measurement)])

    def put_many(
        self, pairs: Sequence[Tuple[str, "Measurement"]]
    ) -> int:
        """Store N entries in one locked pass, evicting LRU entries if full.

        The cache's one write path.  With a ``cache_dir`` bound the batch
        is first written through to the store by
        :meth:`FileStore.write_many` (one GC bookkeeping pass for the
        whole batch), so memory eviction never loses persisted work and a
        crash loses at most the batch in flight; the sizes it returns are
        the entries' sizes for the ``max_bytes`` budget, so each entry is
        pickled once.  Then all insertions happen under a single lock
        acquisition followed by one eviction sweep.  Returns the number
        of entries evicted, so callers can attribute evictions to their
        own activity (per-run cache stats).
        """
        pairs = list(pairs)
        if not pairs:
            return 0
        if self._file_store is not None:
            sizes = self._file_store.write_many(pairs)
        else:
            sizes = [self._size(measurement) for _, measurement in pairs]
        with self._lock:
            for (key, measurement), size in zip(pairs, sizes):
                self._insert(key, measurement, size)
            return self._evict()

    def _size(self, measurement: "Measurement") -> int:
        """Pickled size of an entry no store has written or read, when
        the memory budget needs it (0 otherwise)."""
        if self.max_bytes is None:
            return 0
        return len(pickle.dumps(measurement, protocol=pickle.HIGHEST_PROTOCOL))

    def _insert(self, key: str, measurement: "Measurement", size: int) -> None:
        """Insert one entry of pickled ``size`` as most-recent (caller
        holds the lock)."""
        if key in self._store:
            self._total_bytes -= self._sizes.pop(key, 0)
        self._store[key] = measurement
        self._store.move_to_end(key)
        if self.max_bytes is not None:
            self._sizes[key] = size
            self._total_bytes += size

    def _evict(self) -> int:
        """Pop least-recently-used entries until within every budget
        (caller holds the lock).  Always keeps the most recent entry.
        Returns the number of entries evicted."""
        count = 0
        while len(self._store) > 1 and (
            (self.max_entries is not None and len(self._store) > self.max_entries)
            or (self.max_bytes is not None and self._total_bytes > self.max_bytes)
        ):
            evicted, _ = self._store.popitem(last=False)
            self._total_bytes -= self._sizes.pop(evicted, 0)
            self.evictions += 1
            count += 1
        if count:
            CACHE_EVICTIONS.inc(count)
        return count

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def total_bytes(self) -> int:
        """Pickled size of the stored entries (0 unless ``max_bytes`` set)."""
        return self._total_bytes

    def stats(self) -> Dict[str, float]:
        """Hit/miss/eviction counters and current size, for reports."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "entries": len(self._store),
                "evictions": self.evictions,
                "bytes": self._total_bytes,
                "store_hits": self.store_hits,
                "store_evictions": (
                    0 if self._file_store is None
                    else self._file_store.removed_entries
                ),
            }

    def clear(self) -> None:
        """Drop all in-memory entries and reset the counters.

        Files already persisted by a ``cache_dir`` store stay on disk (they
        may belong to concurrent workers); delete the directory to purge.
        """
        with self._lock:
            self._store.clear()
            self._sizes.clear()
            self._total_bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.store_hits = 0
