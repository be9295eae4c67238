"""FileStore garbage collection: byte/entry budgets over the on-disk tree.

Property-tests the budget invariant (never exceeded after any put
sequence, except the always-protected most-recent entry), the
LRU-by-last-use victim order (reads refresh recency), crash recovery
(leftover ``.tmp`` files swept), and concurrent writers
sharing one budget — plus the ``MeasurementCache``/``Session`` plumbing
that configures the budgets.
"""

import os
import pickle
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.engine.cache import FileStore, MeasurementCache

#: Pickle overhead of a str payload, so tests can reason in exact bytes.
_BASE = len(pickle.dumps("", protocol=pickle.HIGHEST_PROTOCOL))


def _entry_size(payload: str) -> int:
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def _set_mtime(store: FileStore, key: str, seconds_ago: float) -> None:
    """Pin an entry's last-use time explicitly (mtime is the LRU clock)."""
    when = time.time() - seconds_ago
    os.utime(store._path(key), (when, when))


class TestFileStoreBudgets:
    @settings(max_examples=60, deadline=None)
    @given(
        puts=st.lists(
            st.tuples(
                st.from_regex(r"[a-f0-9]{4,8}", fullmatch=True),
                st.integers(min_value=0, max_value=120),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_byte_budget_never_exceeded_after_any_put_sequence(
        self, tmp_path_factory, puts
    ):
        budget = 3 * (_BASE + 64)
        store = FileStore(
            str(tmp_path_factory.mktemp("store")), max_bytes=budget
        )
        for key, size in puts:
            store.write(key, "x" * size)
            total = store.total_bytes
            # The most recent entry is always kept, so a single oversized
            # write may stand alone above budget; otherwise: bounded.
            assert total <= budget or len(store) == 1, (total, store.keys())

    @settings(max_examples=60, deadline=None)
    @given(
        puts=st.lists(
            st.from_regex(r"[a-f0-9]{4,8}", fullmatch=True),
            min_size=1,
            max_size=12,
        )
    )
    def test_entry_budget_never_exceeded(self, tmp_path_factory, puts):
        store = FileStore(
            str(tmp_path_factory.mktemp("store")), max_entries=3
        )
        for key in puts:
            store.write(key, "payload")
            assert len(store) <= 3

    def test_lru_victim_order(self, tmp_path):
        store = FileStore(str(tmp_path), max_entries=3)
        for key in ("aa11", "bb22", "cc33"):
            store.write(key, key)
        # Pin distinct last-use times: aa11 oldest, cc33 newest.
        _set_mtime(store, "aa11", 300)
        _set_mtime(store, "bb22", 200)
        _set_mtime(store, "cc33", 100)
        store.write("dd44", "dd44")  # exceeds the budget by one
        assert sorted(store.keys()) == ["bb22", "cc33", "dd44"]
        store.write("ee55", "ee55")
        assert sorted(store.keys()) == ["cc33", "dd44", "ee55"]

    def test_read_refreshes_recency(self, tmp_path):
        store = FileStore(str(tmp_path), max_entries=2)
        store.write("aa11", "a")
        store.write("bb22", "b")
        _set_mtime(store, "aa11", 300)
        _set_mtime(store, "bb22", 200)
        assert store.read("aa11")[0] == "a"  # refresh: aa11 now most recent
        store.write("cc33", "c")
        assert sorted(store.keys()) == ["aa11", "cc33"]

    def test_oversized_newest_entry_survives(self, tmp_path):
        store = FileStore(str(tmp_path), max_bytes=8)
        store.write("small", "s")
        store.write("bigbig", "x" * 4096)
        # The oversized write evicted everything else but itself persists.
        assert store.keys() == ["bigbig"]
        assert store.read("bigbig")[0] == "x" * 4096

    def test_invalid_budgets_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FileStore(str(tmp_path), max_bytes=0)
        with pytest.raises(ValueError):
            FileStore(str(tmp_path), max_entries=0)

    def test_unbudgeted_store_never_collects_on_write(self, tmp_path):
        store = FileStore(str(tmp_path))
        for i in range(20):
            store.write(f"k{i:02d}", i)
        assert len(store) == 20
        assert store.removed_entries == 0


class TestExplicitGC:
    def test_gc_with_override_budgets_and_counters(self, tmp_path):
        store = FileStore(str(tmp_path))
        for index, key in enumerate(("aa11", "bb22", "cc33", "dd44")):
            store.write(key, key)
            _set_mtime(store, key, 400 - 100 * index)
        stats = store.gc(max_entries=2)
        assert stats["removed_entries"] == 2
        assert stats["entries"] == 2 and len(store) == 2
        assert stats["removed_bytes"] > 0
        assert sorted(store.keys()) == ["cc33", "dd44"]
        assert store.removed_entries == 2  # lifetime counter
        # A second pass with a tighter override prunes further.
        more = store.gc(max_entries=1)
        assert more["removed_entries"] == 1
        assert store.keys() == ["dd44"]

    def test_gc_without_budgets_only_sweeps(self, tmp_path):
        store = FileStore(str(tmp_path))
        store.write("aa11", "a")
        stats = store.gc()
        assert stats["removed_entries"] == 0
        assert stats["entries"] == 1

    def test_crash_leftover_tmps_swept(self, tmp_path):
        store = FileStore(str(tmp_path), max_entries=2)
        store.write("aa11", "a")
        store.write("bb22", "b")
        # Simulate a crashed writer: stale tmp debris in a shard dir.
        shard = os.path.join(str(tmp_path), "objects", "cc")
        os.makedirs(shard, exist_ok=True)
        stale = os.path.join(shard, "orphan123.tmp")
        with open(stale, "w") as handle:
            handle.write("torn write")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        # A *fresh* tmp (a live writer mid-rename) is left alone.
        fresh = os.path.join(shard, "inflight456.tmp")
        with open(fresh, "w") as handle:
            handle.write("in flight")

        stats = store.gc(max_entries=1)
        assert stats["removed_tmp"] == 1
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)

    def test_torn_entries_never_resurface_as_reads(self, tmp_path):
        # keys() and read() see only .pkl files; tmp debris is invisible.
        store = FileStore(str(tmp_path))
        store.write("aa11", "a")
        shard = os.path.join(str(tmp_path), "objects", "aa")
        with open(os.path.join(shard, "junk789.tmp"), "w") as handle:
            handle.write("garbage")
        assert store.keys() == ["aa11"]
        assert store.read("aa11")[0] == "a"

    def test_concurrent_writers_share_one_budget(self, tmp_path):
        """Two writers hammering one directory with a shared byte budget:
        no crash, and the surviving tree respects the budget."""
        directory = str(tmp_path / "shared")
        budget = 6 * (_BASE + 64)

        def worker(worker_id):
            store = FileStore(directory, max_bytes=budget)
            for i in range(20):
                store.write(f"{worker_id}{i:02d}aa", "x" * 64)

        threads = [
            threading.Thread(target=worker, args=(f"w{n}",)) for n in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        final = FileStore(directory, max_bytes=budget)
        assert final.total_bytes <= budget
        # Surviving entries are intact (no torn reads after all that GC).
        for key in final.keys():
            assert final.read(key)[0] == "x" * 64


    @pytest.mark.parametrize(
        "budget", [{"max_bytes": 0}, {"max_bytes": -1}, {"max_entries": 0}]
    )
    def test_gc_rejects_non_positive_overrides(self, tmp_path, budget):
        # The constructor's rule: a zero budget would empty the store.
        store = FileStore(str(tmp_path))
        for key in ("aa11", "bb22", "cc33"):
            store.write(key, key)
        with pytest.raises(ValueError, match="positive integer"):
            store.gc(**budget)
        assert sorted(store.keys()) == ["aa11", "bb22", "cc33"]


class TestMeasurementCacheStoreBudgets:
    def test_write_through_prunes_disk_but_memory_still_serves(self, tmp_path):
        cache = MeasurementCache(
            cache_dir=str(tmp_path), max_store_entries=2
        )
        for index in range(5):
            cache.put(f"m{index}key", ("payload", index))
        assert len(cache.store.keys()) <= 2
        # Disk-evicted entries still live in memory (LRU there is separate).
        assert cache.get("m0key") == ("payload", 0)
        assert cache.stats()["store_evictions"] == 3

    def test_disk_evicted_entry_is_a_miss_for_fresh_caches(self, tmp_path):
        writer = MeasurementCache(cache_dir=str(tmp_path), max_store_entries=1)
        writer.put("aa11", "one")
        writer.put("bb22", "two")
        reader = MeasurementCache(cache_dir=str(tmp_path))
        assert reader.get("bb22") == "two"
        assert reader.get("aa11") is None  # pruned from the shared store
        assert reader.misses == 1

    def test_store_budgets_require_cache_dir(self, tmp_path):
        with pytest.raises(ValueError, match="cache_dir"):
            MeasurementCache(max_store_bytes=1024)
        with pytest.raises(ValueError, match="cache_dir"):
            MeasurementCache(max_store_entries=4)

    def test_session_forwards_store_budgets(self, tmp_path):
        with Session(
            cache_dir=str(tmp_path), max_store_entries=7, max_store_bytes=1 << 20
        ) as session:
            assert session.cache.store.max_entries == 7
            assert session.cache.store.max_bytes == 1 << 20
        with pytest.raises(ValueError, match="externally built"):
            Session(cache=MeasurementCache(), max_store_bytes=1 << 20)

    def test_stats_include_store_evictions(self):
        assert MeasurementCache().stats()["store_evictions"] == 0
