"""Tests for the parallel cached measurement engine (repro.engine)."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro
from repro.core.estimators import FixHOptEstimator, IdealEstimator
from repro.core.sources import VarianceSource
from repro.core.variance import hpo_variance_study, variance_decomposition_study
from repro.data.dataset import Dataset
from repro.engine import shm
from repro.engine import (
    CancellableExecutor,
    FileStore,
    MeasurementCache,
    ParallelExecutor,
    StudyCancelled,
    StudyRunner,
    WorkItem,
    measurement_key,
    resolve_n_jobs,
)
from repro.hpo.grid import NoisyGridSearch
from repro.hpo.random_search import RandomSearch
from repro.utils.rng import SeedBundle, SeedScope


def _square(x):
    return x * x


def _mark_and_sleep(item):
    """Process-pool work item: drop a marker file, then dawdle (top level
    so it pickles)."""
    directory, index = item
    with open(os.path.join(directory, f"item-{index}"), "w"):
        pass
    time.sleep(0.05)
    return index


def _pid_after_nap(item):
    """Report the pool child that ran ``item``; the nap makes both children
    of a two-process pool take part in a two-item map."""
    time.sleep(0.2)
    return os.getpid()


def _die_on_three(item):
    if item == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def _slow_square(x):
    time.sleep(0.01)
    return x * x


def _live_child_pids():
    return {child.pid for child in multiprocessing.active_children()}


class TestParallelExecutor:
    def test_serial_map_preserves_order(self):
        executor = ParallelExecutor(1)
        assert executor.map(_square, range(7)) == [x * x for x in range(7)]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_map_preserves_order(self, backend):
        executor = ParallelExecutor(3, backend=backend)
        assert executor.map(_square, range(20)) == [x * x for x in range(20)]

    def test_empty_items(self):
        assert ParallelExecutor(4).map(_square, []) == []

    def test_single_worker_is_serial(self):
        assert ParallelExecutor(1, backend="process").effective_backend == "serial"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(2, backend="mpi")

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(0) == 1
        assert resolve_n_jobs(-1) >= 1
        assert resolve_n_jobs(None) == 1


class TestMeasurementKey:
    def test_same_inputs_same_key(self, classification_process, seed_bundle):
        key_a = measurement_key(classification_process, seed_bundle, None)
        key_b = measurement_key(classification_process, seed_bundle, None)
        assert key_a == key_b

    def test_seeds_change_key(self, classification_process, seed_bundle, rng):
        other = seed_bundle.randomized(["init"], rng)
        assert measurement_key(classification_process, seed_bundle, None) != (
            measurement_key(classification_process, other, None)
        )

    def test_hparams_change_key(self, classification_process, seed_bundle):
        base = measurement_key(classification_process, seed_bundle, None)
        assert base != measurement_key(
            classification_process, seed_bundle, {"learning_rate": 0.5}
        )

    def test_hpo_flag_changes_key(self, classification_process, seed_bundle):
        assert measurement_key(
            classification_process, seed_bundle, None, with_hpo=False
        ) != measurement_key(classification_process, seed_bundle, None, with_hpo=True)


class TestMeasurementCache:
    def test_hit_miss_accounting(self, classification_process, seed_bundle):
        cache = MeasurementCache()
        runner = StudyRunner(classification_process, cache=cache)
        items = [WorkItem(seeds=seed_bundle)]
        first = runner.run(items)
        second = runner.run(items)
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.hit_rate == pytest.approx(0.5)
        assert first[0].test_score == second[0].test_score
        assert len(cache) == 1

    def test_within_batch_deduplication(self, classification_process, seed_bundle):
        cache = MeasurementCache()
        runner = StudyRunner(classification_process, cache=cache)
        measurements = runner.run([WorkItem(seeds=seed_bundle)] * 4)
        # One fit, three replays; all four results identical and ordered.
        assert cache.misses == 1
        assert cache.hits == 3
        scores = {m.test_score for m in measurements}
        assert len(scores) == 1

    def test_cached_replay_is_bitwise_identical(self, classification_process, rng):
        cache = MeasurementCache()
        runner = StudyRunner(classification_process, cache=cache)
        items = [WorkItem(seeds=SeedBundle.random(rng)) for _ in range(3)]
        uncached = StudyRunner(classification_process).run_scores(items)
        warm = runner.run_scores(items)
        replayed = runner.run_scores(items)
        np.testing.assert_array_equal(uncached, warm)
        np.testing.assert_array_equal(warm, replayed)

    def test_max_entries_evicts_oldest(self):
        cache = MeasurementCache(max_entries=2)
        cache.put("a", "ma")
        cache.put("b", "mb")
        cache.put("c", "mc")
        assert len(cache) == 2
        assert "a" not in cache and "c" in cache

    def test_eviction_is_lru_not_fifo(self):
        cache = MeasurementCache(max_entries=2)
        cache.put("a", "ma")
        cache.put("b", "mb")
        cache.get("a")  # refresh: "a" is now the most recently used
        cache.put("c", "mc")
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_put_refreshes_recency(self):
        cache = MeasurementCache(max_entries=2)
        cache.put("a", "ma")
        cache.put("b", "mb")
        cache.put("a", "ma2")  # rewrite refreshes "a"
        cache.put("c", "mc")
        assert "a" in cache and "b" not in cache
        assert cache.get("a") == "ma2"

    def test_max_bytes_budget_evicts_lru(self):
        one_entry = len(__import__("pickle").dumps("m" * 64))
        cache = MeasurementCache(max_bytes=2 * one_entry)
        cache.put("a", "a" * 64)
        cache.put("b", "b" * 64)
        assert len(cache) == 2 and cache.total_bytes <= 2 * one_entry
        cache.put("c", "c" * 64)
        assert "a" not in cache and len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["bytes"] == cache.total_bytes > 0

    def test_oversized_entry_still_cached(self):
        cache = MeasurementCache(max_bytes=8)  # smaller than any entry
        cache.put("big", "x" * 1024)
        assert "big" in cache and len(cache) == 1

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            MeasurementCache(max_entries=0)
        with pytest.raises(ValueError):
            MeasurementCache(max_bytes=0)

    def test_stats_include_eviction_counters(self):
        stats = MeasurementCache().stats()
        assert {"hits", "misses", "hit_rate", "entries", "evictions", "bytes"} <= set(
            stats
        )

    def test_clear_resets_counters(self):
        cache = MeasurementCache()
        cache.put("a", "ma")
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_stats_keys(self):
        stats = MeasurementCache().stats()
        assert {"hits", "misses", "hit_rate", "entries"} <= set(stats)


class TestFileStore:
    def test_roundtrip_and_scan(self, tmp_path):
        store = FileStore(str(tmp_path / "store"))
        assert store.read("deadbeef") is None
        assert len(store) == 0
        size = store.write("deadbeef", {"score": 1.0})
        assert size > 0
        assert store.read("deadbeef") == ({"score": 1.0}, size)
        assert "deadbeef" in store
        store.write("dd00aa", [1, 2, 3])
        assert sorted(store.keys()) == ["dd00aa", "deadbeef"]

    def test_rewrite_is_atomic_replace(self, tmp_path):
        store = FileStore(str(tmp_path))
        store.write("aa11", "first")
        store.write("aa11", "second")
        assert store.read("aa11")[0] == "second"
        assert len(store) == 1

    def test_invalid_keys_rejected(self, tmp_path):
        store = FileStore(str(tmp_path))
        for bad in ("", "../escape", "a/b", "x.y"):
            with pytest.raises(ValueError):
                store.write(bad, 1)

    def test_old_index_json_is_ignored_and_left_alone(self, tmp_path):
        # Older versions kept an index.json beside the object tree; the
        # store lists, reads and collects only objects/ and never touches
        # that file.
        store = FileStore(str(tmp_path))
        for key in ("aa11", "bb22", "cc33"):
            store.write(key, key)
        stale = os.path.join(str(tmp_path), "index.json")
        old = json.dumps(
            {"entries": 3, "sizes": {"aa11": 1, "ee55": 2, "ff66": 3}}
        ).encode()
        with open(stale, "wb") as handle:
            handle.write(old)
        assert store.keys() == ["aa11", "bb22", "cc33"]
        assert len(store) == 3
        assert [store.read(key)[0] for key in store.keys()] == store.keys()
        assert store.read("ee55") is None
        stats = store.gc(max_entries=1)
        assert stats["removed_entries"] == 2 and stats["entries"] == 1
        assert len(store.keys()) == 1
        with open(stale, "rb") as handle:
            assert handle.read() == old


class TestCacheDirStore:
    def test_put_writes_through_and_get_falls_back(self, tmp_path):
        directory = str(tmp_path / "cache")
        writer = MeasurementCache(cache_dir=directory)
        writer.put("aabb", {"m": 1})
        # A different cache instance (another worker/session) sees the entry.
        reader = MeasurementCache(cache_dir=directory)
        assert reader.get("aabb") == {"m": 1}
        assert reader.hits == 1 and reader.misses == 0 and reader.store_hits == 1
        assert reader.stats()["store_hits"] == 1
        # Second get is served from memory, not the store.
        assert reader.get("aabb") == {"m": 1}
        assert reader.store_hits == 1 and reader.hits == 2

    def test_memory_eviction_keeps_disk_entries(self, tmp_path):
        cache = MeasurementCache(cache_dir=str(tmp_path), max_entries=1)
        cache.put("aa11", "one")
        cache.put("bb22", "two")  # evicts aa11 from memory only
        assert cache.evictions == 1
        assert cache.get("aa11") == "one"  # replayed from disk
        assert cache.store_hits == 1

    def test_concurrent_writers_do_not_corrupt(self, tmp_path):
        """Many caches hammering one directory: every entry survives intact."""
        directory = str(tmp_path / "shared")

        def worker(worker_id):
            cache = MeasurementCache(cache_dir=directory)
            for i in range(25):
                cache.put(f"{worker_id}{i:02d}aa", (worker_id, i))
                cache.get(f"{worker_id}{i:02d}aa")

        threads = [
            threading.Thread(target=worker, args=(f"w{n}",)) for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        fresh = MeasurementCache(cache_dir=directory)
        assert len(fresh.store) == 6 * 25
        for n in range(6):
            for i in range(25):
                assert fresh.get(f"w{n}{i:02d}aa") == (f"w{n}", i)
        assert fresh.misses == 0

    def test_runner_replays_from_store_across_instances(
        self, tmp_path, classification_process, seed_bundle
    ):
        directory = str(tmp_path / "measurements")
        warm = StudyRunner(
            classification_process, cache=MeasurementCache(cache_dir=directory)
        )
        score = warm.run_scores([WorkItem(seeds=seed_bundle)])[0]
        cold_cache = MeasurementCache(cache_dir=directory)
        cold = StudyRunner(classification_process, cache=cold_cache)
        assert cold.run_scores([WorkItem(seeds=seed_bundle)])[0] == score
        assert cold_cache.misses == 0 and cold_cache.store_hits == 1


class TestProcessBackendParity:
    """The determinism contract holds on the process backend too.

    The shard-parity matrix in tests/test_api.py exercises the default
    thread backend; these run the same submit-equals-run claim — and the
    cross-backend identity — through real process pools, where functions,
    items and measurements all cross a pickle boundary.
    """

    PARAMS = {
        "task_names": ["entailment", "sentiment"],
        "n_splits": 2,
        "dataset_size": 150,
    }

    @staticmethod
    def _canon(result):
        return json.dumps(result.to_rows(), sort_keys=True, default=str)

    def test_submit_equals_run_bitwise_on_process_backend(self):
        from repro.api import Session, StudySpec

        spec = StudySpec(
            study="binomial",
            params=self.PARAMS,
            n_jobs=2,
            backend="process",
            random_state=5,
        )
        with Session(backend="process") as session:
            full = session.run(spec)
            handle = session.submit(spec)
            assert len(handle) == 2
            merged = handle.result()
        assert self._canon(full) == self._canon(merged)
        # Cross-backend identity: the process-pool result is bitwise the
        # serial result (seeds are pre-drawn; pickling changes nothing).
        with Session() as session:
            serial = session.run(spec.replace(backend="serial", n_jobs=1))
        assert self._canon(serial) == self._canon(full)

    def test_process_study_replays_from_shared_store(self, tmp_path):
        from repro.api import Session, StudySpec

        spec = StudySpec(
            study="binomial",
            params=self.PARAMS,
            n_jobs=2,
            backend="process",
            random_state=5,
        )
        directory = str(tmp_path / "store")
        with Session(backend="process", cache_dir=directory) as session:
            cold = session.run(spec)
        assert cold.cache_stats["misses"] > 0
        with Session(backend="process", cache_dir=directory) as fresh:
            warm = fresh.run(spec)
        assert warm.cache_stats["misses"] == 0
        assert self._canon(cold) == self._canon(warm)


class TestCancellation:
    def test_map_raises_when_already_cancelled(self):
        event = threading.Event()
        event.set()
        with pytest.raises(StudyCancelled):
            ParallelExecutor(1).map(_square, [1, 2], cancel=event)

    def test_serial_map_stops_between_items(self):
        event = threading.Event()
        seen = []

        def fn(x):
            seen.append(x)
            event.set()  # cancel after the first item
            return x

        with pytest.raises(StudyCancelled):
            ParallelExecutor(1).map(fn, [1, 2, 3], cancel=event)
        assert seen == [1]

    def test_thread_map_checks_per_item(self):
        event = threading.Event()
        event.set()
        with pytest.raises(StudyCancelled):
            ParallelExecutor(2, backend="thread").map(
                _square, [1, 2, 3, 4], cancel=event
            )

    def test_map_without_event_unchanged(self):
        assert ParallelExecutor(1).map(_square, [2, 3]) == [4, 9]

    def test_cancellable_executor_delegates_and_binds_event(self):
        event = threading.Event()
        executor = CancellableExecutor(ParallelExecutor(2), event)
        assert executor.n_jobs == 2
        assert executor.backend == "thread"
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        event.set()
        with pytest.raises(StudyCancelled):
            executor.map(_square, [1])

    def test_runner_batches_respect_cancel(
        self, classification_process, seed_bundle
    ):
        event = threading.Event()
        runner = StudyRunner(
            classification_process,
            executor=CancellableExecutor(ParallelExecutor(1), event),
        )
        assert len(runner.run([WorkItem(seeds=seed_bundle)])) == 1
        event.set()
        other = SeedBundle(base_seed=99)
        with pytest.raises(StudyCancelled):
            runner.run([WorkItem(seeds=other)])

    def test_process_map_raises_when_already_cancelled(self):
        event = threading.Event()
        event.set()
        with pytest.raises(StudyCancelled):
            ParallelExecutor(2, backend="process").map(
                _square, [1, 2, 3, 4], cancel=event
            )

    def test_process_map_stops_between_batches(self):
        # An event set between batches stops the next batch before any
        # worker spins up.
        event = threading.Event()
        executor = CancellableExecutor(
            ParallelExecutor(2, backend="process"), event
        )
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        event.set()
        with pytest.raises(StudyCancelled):
            executor.map(_square, [4, 5, 6])

    def test_process_map_stops_between_items_inside_a_batch(self, tmp_path):
        # The threading event cannot cross process pickling, so a relay
        # mirrors it into a multiprocessing event checked before every
        # item *inside* pool workers: a cancellation mid-batch stops the
        # remaining items of that batch, not just the next batch.
        event = threading.Event()
        watcher_error = []

        def set_after_first_marker():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if any(tmp_path.iterdir()):
                    event.set()
                    return
                time.sleep(0.002)
            watcher_error.append("no marker appeared")  # pragma: no cover

        watcher = threading.Thread(target=set_after_first_marker)
        watcher.start()
        items = [(str(tmp_path), index) for index in range(24)]
        try:
            with pytest.raises(StudyCancelled):
                ParallelExecutor(2, backend="process").map(
                    _mark_and_sleep, items, cancel=event
                )
        finally:
            watcher.join()
        assert not watcher_error
        # Some items ran before the cancel landed, but nowhere near all:
        # the batch was truncated between items, not drained.
        ran = len(list(tmp_path.iterdir()))
        assert 1 <= ran < 24

    def test_process_single_item_batch_checks_per_item(self):
        # One item falls back to the serial path, which checks the event
        # between items even on a process-configured executor.
        event = threading.Event()

        def fn(x):
            event.set()
            return x

        executor = ParallelExecutor(2, backend="process")
        assert executor.map(fn, [7], cancel=event) == [7]
        with pytest.raises(StudyCancelled):
            executor.map(fn, [8], cancel=event)

    def test_submit_cancel_with_process_backend_drains(self):
        from repro.api import Session, StudySpec

        spec = StudySpec(
            study="binomial",
            params={
                "task_names": ["entailment", "sentiment"],
                "n_splits": 2,
                "dataset_size": 150,
            },
            backend="process",
            n_jobs=2,
            random_state=0,
        )
        with Session(backend="process", max_concurrent_studies=1) as session:
            handle = session.submit(spec)
            handle.cancel()
            assert handle.cancelled()
            # Process batches stop at their boundaries; draining the
            # handle must never hang and never yield a truncated shard.
            for partial in handle.partial_results():
                assert partial.to_rows()
            assert handle.done()


class TestProcessPoolLifetime:
    """One pool per executor: forked at the first process map, reused by
    every later map until close(), rebuilt after close() or a dead child."""

    def test_maps_reuse_the_same_children(self):
        executor = ParallelExecutor(2, backend="process")
        try:
            first = set(executor.map(_pid_after_nap, range(2)))
            second = set(executor.map(_pid_after_nap, range(2)))
            live = _live_child_pids()
        finally:
            executor.close()
        assert len(first | second) <= 2
        # The first map's children are still alive: no pool per map.
        assert first | second <= live
        assert not (first | second) & _live_child_pids()

    def test_session_close_ends_children_and_run_still_works(self):
        from repro.api import Session, StudySpec

        spec = StudySpec(
            study="binomial",
            params=TestProcessBackendParity.PARAMS,
            n_jobs=2,
            backend="process",
            random_state=5,
        )
        before = _live_child_pids()
        session = Session(backend="process")
        try:
            first = session.run(spec)
            children = _live_child_pids() - before
            session.close()
            assert not children & _live_child_pids()
            # close() keeps its promise: blocking run() still works after it.
            again = session.run(spec)
        finally:
            session.close()
        canon = TestProcessBackendParity._canon
        assert canon(again) == canon(first)

    def test_unclosed_executor_releases_its_pool_when_collected(self):
        executor = ParallelExecutor(2, backend="process")
        pids = set(executor.map(_pid_after_nap, range(2)))
        del executor
        deadline = time.monotonic() + 30
        while pids & _live_child_pids() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not pids & _live_child_pids()

    def test_dead_child_fails_its_map_and_the_next_map_recovers(self):
        executor = ParallelExecutor(2, backend="process")
        try:
            with pytest.raises(BrokenProcessPool):
                executor.map(_die_on_three, range(6))
            assert executor.map(_square, range(6)) == [x * x for x in range(6)]
        finally:
            executor.close()

    def test_child_killed_between_maps_does_not_fail_the_next_map(self):
        executor = ParallelExecutor(2, backend="process")
        try:
            pids = set(executor.map(_pid_after_nap, range(2)))
            os.kill(min(pids), signal.SIGKILL)
            # The pool notices the death, marks itself broken and reaps
            # its children; the next map must fork a new pool, not fail.
            deadline = time.monotonic() + 30
            while pids & _live_child_pids() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not pids & _live_child_pids()
            assert executor.map(_square, range(6)) == [x * x for x in range(6)]
        finally:
            executor.close()

    def test_cancelling_one_of_two_concurrent_maps_spares_the_other(self, tmp_path):
        # Both maps share the executor's pool; cancellation is per map.
        executor = ParallelExecutor(2, backend="process")
        cancel = threading.Event()
        values = [x / 7.0 for x in range(16)]
        outcome = {}

        def started():
            deadline = time.monotonic() + 60
            while not any(tmp_path.iterdir()) and time.monotonic() < deadline:
                time.sleep(0.002)

        def cancel_after_first_item():
            started()
            cancel.set()

        def other_map():
            started()
            outcome["other"] = executor.map(
                _slow_square, values, cancel=threading.Event()
            )

        threads = [
            threading.Thread(target=cancel_after_first_item),
            threading.Thread(target=other_map),
        ]
        for thread in threads:
            thread.start()
        items = [(str(tmp_path), index) for index in range(24)]
        try:
            with pytest.raises(StudyCancelled):
                executor.map(_mark_and_sleep, items, cancel=cancel)
        finally:
            for thread in threads:
                thread.join(timeout=60)
            executor.close()
        assert not any(thread.is_alive() for thread in threads)
        assert 1 <= len(list(tmp_path.iterdir())) < 24
        assert outcome["other"] == [_slow_square(x) for x in values]


class TestBoundedAttachments:
    """Pool children keep at most ``shm._MAX_ATTACHED`` datasets mapped."""

    def test_evicting_a_dataset_still_in_use_defers_its_close(self, monkeypatch):
        monkeypatch.setattr(shm, "_MAX_ATTACHED", 1)
        monkeypatch.setattr(shm, "_ATTACHED", OrderedDict())
        monkeypatch.setattr(shm, "_EVICTED", [])
        arena = shm.SharedDatasetArena()
        rng = np.random.default_rng(0)
        datasets = [
            Dataset(rng.normal(size=(8, 2)), rng.integers(0, 2, 8)) for _ in range(3)
        ]
        try:
            handles = [arena.publish(dataset) for dataset in datasets]
            in_use = handles[0].materialize().X[1:5]
            # Evicting the first dataset must not unmap memory a live view
            # still reads: its segments stay open.
            handles[1].materialize()
            assert list(shm._ATTACHED) == [handles[1]]
            assert len(shm._EVICTED) == 1
            np.testing.assert_array_equal(in_use, datasets[0].X[1:5])
            del in_use
            # The next eviction finds the view gone and closes them.
            handles[2].materialize()
            assert list(shm._ATTACHED) == [handles[2]]
            assert shm._EVICTED == []
        finally:
            monkeypatch.setattr(shm, "_MAX_ATTACHED", 0)
            shm._evict()
            arena.close()
        assert not shm._ATTACHED and not shm._EVICTED

    def test_children_keep_a_bounded_number_of_datasets_attached(self, tmp_path):
        # A pool child lives as long as its executor; it must not keep
        # every dataset the executor ever shipped it mapped.
        script = tmp_path / "attach.py"
        script.write_text(textwrap.dedent(
            """
            import json
            import os
            import time

            import numpy as np

            from repro.data.dataset import Dataset
            from repro.engine import shm
            from repro.engine.executor import ParallelExecutor


            class Touch:
                # Unpickling attaches the dataset, as a study task's does.
                def __init__(self, handle):
                    self.handle = handle

                def __getstate__(self):
                    return self.handle

                def __setstate__(self, handle):
                    self.handle = handle
                    self.dataset = handle.materialize()

                def __call__(self, row):
                    return float(self.dataset.X[row].sum())


            def probe(item):
                time.sleep(0.1)
                mapped = None
                if os.path.exists("/proc/self/maps"):
                    with open("/proc/self/maps") as maps:
                        mapped = len(
                            {line.split()[5] for line in maps if "/psm_" in line}
                        )
                return os.getpid(), len(shm._ATTACHED), mapped


            def main():
                executor = ParallelExecutor(2, backend="process")
                executor.map(probe, range(2))  # fork before any publish
                rng = np.random.default_rng(0)
                for _ in range(2 * shm._MAX_ATTACHED + 2):
                    dataset = Dataset(rng.normal(size=(16, 3)), rng.integers(0, 2, 16))
                    handle = shm.shared_arena().publish(dataset)
                    sums = executor.map(Touch(handle), range(4))
                    assert sums == [float(dataset.X[row].sum()) for row in range(4)]
                del dataset
                print(json.dumps(
                    {"bound": shm._MAX_ATTACHED, "probes": executor.map(probe, range(6))}
                ))
                executor.close()


            if __name__ == "__main__":
                main()
            """
        ))
        source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=source_root),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        bound = report["bound"]
        for _, attached, mapped in report["probes"]:
            assert attached <= bound
            if mapped is not None:  # two segments (X and y) per dataset
                assert mapped <= 2 * bound
        assert "Exception ignored" not in result.stderr
        assert "resource_tracker" not in result.stderr
        assert "BufferError" not in result.stderr


class TestWorkItemScope:
    def test_from_scope_derives_bundle_and_path(self):
        scope = SeedScope.from_state(0).child("task", "t").child("rep", 1)
        item = WorkItem.from_scope(scope, with_hpo=True)
        assert item.seeds == scope.bundle()
        assert item.with_hpo
        assert item.scope_path == "task=t/rep=1"

    def test_scope_path_does_not_enter_measurement_key(
        self, classification_process, seed_bundle
    ):
        plain = measurement_key(classification_process, seed_bundle, None)
        # Same seeds under any provenance label must share the cache entry.
        assert plain == measurement_key(classification_process, seed_bundle, None)


class TestStudyRunnerEquivalence:
    """Parallel execution must be bitwise identical to the serial path."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_variance_study_parallel_equals_serial(self, hard_process, backend):
        kwargs = dict(
            sources=(VarianceSource.DATA, VarianceSource.INIT),
            n_seeds=4,
        )
        serial = variance_decomposition_study(hard_process, random_state=3, **kwargs)
        runner = StudyRunner(hard_process, n_jobs=3, backend=backend)
        parallel = variance_decomposition_study(
            hard_process, random_state=3, runner=runner, **kwargs
        )
        assert set(serial.scores) == set(parallel.scores)
        for source in serial.scores:
            np.testing.assert_array_equal(serial.scores[source], parallel.scores[source])

    def test_variance_study_cached_rerun_hits(self, hard_process):
        cache = MeasurementCache()
        runner = StudyRunner(hard_process, cache=cache)
        kwargs = dict(sources=(VarianceSource.DATA,), n_seeds=3, random_state=9)
        first = variance_decomposition_study(hard_process, runner=runner, **kwargs)
        second = variance_decomposition_study(hard_process, runner=runner, **kwargs)
        # Same random_state -> same pre-drawn seeds -> full cache replay.
        assert cache.misses == 6 and cache.hits == 6
        for source in first.scores:
            np.testing.assert_array_equal(first.scores[source], second.scores[source])

    def test_hpo_study_parallel_equals_serial(self, hard_process):
        algorithms = {"random_search": RandomSearch()}
        serial = hpo_variance_study(
            hard_process, algorithms, n_repetitions=3, random_state=11
        )
        parallel = hpo_variance_study(
            hard_process, algorithms, n_repetitions=3, random_state=11, n_jobs=2
        )
        np.testing.assert_array_equal(
            serial["random_search"], parallel["random_search"]
        )

    def test_stateful_hpo_algorithm_safe_under_thread_parallelism(self, hard_process):
        # NoisyGridSearch keeps per-run state (its grid is rebuilt in
        # prepare()); concurrent with_hpo items must each get their own
        # optimizer copy, or repetitions would race on the shared grid.
        algorithms = {"noisy_grid": NoisyGridSearch()}
        serial = hpo_variance_study(
            hard_process, algorithms, n_repetitions=4, random_state=13
        )
        parallel = hpo_variance_study(
            hard_process, algorithms, n_repetitions=4, random_state=13, n_jobs=4
        )
        np.testing.assert_array_equal(serial["noisy_grid"], parallel["noisy_grid"])

    def test_runner_bound_to_other_process_rejected(
        self, hard_process, classification_process
    ):
        runner = StudyRunner(classification_process)
        with pytest.raises(ValueError, match="different BenchmarkProcess"):
            variance_decomposition_study(hard_process, n_seeds=2, runner=runner)
        with pytest.raises(ValueError, match="different BenchmarkProcess"):
            IdealEstimator().estimate(hard_process, 2, runner=runner)

    def test_fix_hpo_estimator_parallel_equals_serial(self, hard_process):
        serial = FixHOptEstimator(randomize="all").estimate(
            hard_process, 5, random_state=2
        )
        runner = StudyRunner(hard_process, n_jobs=2)
        parallel = FixHOptEstimator(randomize="all").estimate(
            hard_process, 5, random_state=2, runner=runner
        )
        np.testing.assert_array_equal(serial.scores, parallel.scores)
        assert serial.n_fits == parallel.n_fits

    def test_ideal_estimator_parallel_equals_serial(self, hard_process):
        serial = IdealEstimator().estimate(hard_process, 3, random_state=5)
        runner = StudyRunner(hard_process, n_jobs=2)
        parallel = IdealEstimator().estimate(
            hard_process, 3, random_state=5, runner=runner
        )
        np.testing.assert_array_equal(serial.scores, parallel.scores)
        assert serial.n_fits == parallel.n_fits

    def test_generic_map_passthrough(self, hard_process):
        runner = StudyRunner(hard_process, n_jobs=2)
        assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
