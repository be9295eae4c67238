"""Tests for the unified Study API (repro.api).

Covers the three layers of the front door:

* ``StudySpec`` — validation and the JSON round-trip (property-tested);
* the registry — completeness over the experiment layer and metadata
  integrity (smoke params must be valid driver kwargs);
* ``Session`` — every registered study runs at tiny scale, is
  bitwise-identical at ``n_jobs=1`` vs ``n_jobs=2``, shares one warm
  cache across runs, and streams shard results through ``submit``.
"""

import json
import os
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments as experiments
from repro.api import Session, StudySpec, get_study, iter_studies, list_studies
from repro.api.registry import ENGINE_PARAMS
from repro.api.results import StudyResult
from repro.api.session import StudyHandle
from repro.engine import MeasurementCache, StudyCancelled
from repro.engine.cache import FileStore

#: Studies whose smoke-scale run is fast enough for the equivalence matrix.
ALL_STUDIES = list_studies()


# ----------------------------------------------------------------------
# StudySpec
# ----------------------------------------------------------------------
_param_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)

_specs = st.builds(
    StudySpec,
    study=st.sampled_from(ALL_STUDIES),
    params=st.dictionaries(
        st.text(min_size=1, max_size=16), _param_values, max_size=4
    ),
    n_jobs=st.none() | st.integers(min_value=-1, max_value=8),
    backend=st.none() | st.sampled_from(["serial", "thread", "process"]),
    cache=st.booleans(),
    random_state=st.none() | st.integers(min_value=0, max_value=2**31),
)


class TestStudySpec:
    @settings(max_examples=200, deadline=None)
    @given(spec=_specs)
    def test_json_round_trip_property(self, spec):
        assert StudySpec.from_json(spec.to_json()) == spec
        assert StudySpec.from_dict(spec.to_dict()) == spec
        # to_json output is valid, self-contained JSON.
        assert json.loads(spec.to_json())["study"] == spec.study

    def test_tuples_normalize_to_lists(self):
        spec = StudySpec(study="variance", params={"task_names": ("entailment",)})
        assert spec.params["task_names"] == ["entailment"]
        assert StudySpec.from_json(spec.to_json()) == spec

    def test_invalid_study_rejected(self):
        with pytest.raises(ValueError):
            StudySpec(study="")

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            StudySpec(study="variance", backend="mpi")

    def test_non_serializable_param_rejected(self):
        with pytest.raises(TypeError):
            StudySpec(study="variance", params={"rng": object()})

    def test_generator_random_state_rejected(self):
        import numpy as np

        with pytest.raises(TypeError):
            StudySpec(study="variance", random_state=np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [-1, 2**32 - 1, 2**40])
    def test_out_of_range_random_state_rejected(self, seed):
        """Such a seed once ran, aliasing another seed's rows."""
        with pytest.raises(ValueError, match=f"got {seed}"):
            StudySpec(study="detection", random_state=seed)
        with pytest.raises(ValueError, match="random_state"):
            StudySpec.from_dict({"study": "detection", "random_state": seed})

    def test_cache_must_be_a_bool(self):
        # A spec joins or skips its session's cache; it never names a
        # directory, so a service client cannot choose where it writes.
        with pytest.raises(TypeError, match="cache_dir"):
            StudySpec(study="sota", cache="elsewhere")
        with pytest.raises(TypeError, match="bool"):
            StudySpec.from_dict({"study": "sota", "cache": 1})

    def test_unknown_field_rejected_in_from_dict(self):
        with pytest.raises(ValueError, match="unknown StudySpec fields"):
            StudySpec.from_dict({"study": "variance", "jobs": 2})

    def test_replace_and_with_params(self):
        spec = StudySpec(study="variance", params={"n_seeds": 5})
        assert spec.replace(n_jobs=4).n_jobs == 4
        assert spec.with_params(n_seeds=9).params["n_seeds"] == 9
        assert spec.params["n_seeds"] == 5  # original untouched

    def test_specs_are_hashable_and_immutable(self):
        a = StudySpec(study="variance", params={"task_names": ["entailment"]})
        b = StudySpec(study="variance", params={"task_names": ("entailment",)})
        c = a.replace(n_jobs=4)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, c}) == 2  # equal specs dedupe in a set
        with pytest.raises(TypeError):
            a.params["task_names"] = ["sentiment"]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_experiment_driver_is_registered(self):
        registered = {info.func for info in iter_studies()}
        drivers = {
            getattr(experiments, name)
            for name in experiments.__all__
            if name.startswith("run_")
        }
        missing = {fn.__name__ for fn in drivers - registered}
        assert not missing, f"unregistered experiment drivers: {sorted(missing)}"

    def test_ten_studies_registered(self):
        assert len(ALL_STUDIES) >= 10

    def test_unknown_study_lists_alternatives(self):
        with pytest.raises(KeyError, match="registered studies"):
            get_study("not-a-study")

    def test_metadata_complete(self):
        for info in iter_studies():
            assert info.artefact, info.name
            assert info.description, info.name
            # Smoke params must be real driver kwargs.
            info.validate_params(info.smoke_params)

    def test_every_driver_accepts_engine_params(self):
        for info in iter_studies():
            valid = info.valid_params()
            for knob in ENGINE_PARAMS:
                assert knob in valid, (info.name, knob)

    def test_engine_knobs_rejected_inside_params(self):
        info = get_study("variance")
        with pytest.raises(ValueError, match="StudySpec fields"):
            info.validate_params({"n_jobs": 4})

    def test_unknown_param_rejected_with_valid_list(self):
        info = get_study("variance")
        with pytest.raises(ValueError, match="valid parameters"):
            info.validate_params({"n_seedz": 4})


# ----------------------------------------------------------------------
# Session.run: every registered study, parallel == serial
# ----------------------------------------------------------------------
def _smoke_spec(name: str, *, n_jobs: int) -> StudySpec:
    info = get_study(name)
    return StudySpec(
        study=name, params=dict(info.smoke_params), n_jobs=n_jobs, random_state=7
    )


class TestSessionRun:
    @pytest.mark.parametrize("name", ALL_STUDIES)
    def test_every_study_runs_and_parallel_equals_serial(self, name):
        with Session() as session:
            serial = session.run(_smoke_spec(name, n_jobs=1))
        with Session() as session:
            parallel = session.run(_smoke_spec(name, n_jobs=2))
        rows_serial = serial.to_rows()
        rows_parallel = parallel.to_rows()
        assert rows_serial, f"study {name} produced no rows"
        # Bitwise equality of every reported value, row by row.
        assert json.dumps(rows_serial, sort_keys=True, default=str) == json.dumps(
            rows_parallel, sort_keys=True, default=str
        )
        # The uniform interface is complete.
        assert name in parallel.to_json()
        assert parallel.summary()

    def test_spec_params_validated(self):
        with Session() as session:
            with pytest.raises(ValueError, match="valid parameters"):
                session.run(StudySpec(study="variance", params={"bogus": 1}))

    def test_run_accepts_bare_study_name(self):
        with Session() as session:
            result = session.run("sample_size")
        assert result.to_rows()

    def test_shared_cache_replays_across_runs(self):
        spec = _smoke_spec("hpo_curves", n_jobs=1)
        with Session() as session:
            first = session.run(spec)
            second = session.run(spec)
            assert first.cache_stats["misses"] > 0
            assert second.cache_stats["misses"] == 0
            assert second.cache_stats["hits"] == (
                first.cache_stats["misses"] + first.cache_stats["hits"]
            )
            assert session.studies_run == 2
            assert session.stats()["cache"]["entries"] > 0
        # Warm replay is bitwise identical.
        assert json.dumps(first.to_rows(), sort_keys=True) == json.dumps(
            second.to_rows(), sort_keys=True
        )

    def test_cache_false_disables_memoization(self):
        spec = _smoke_spec("hpo_curves", n_jobs=1).replace(cache=False)
        with Session() as session:
            result = session.run(spec)
            assert result.cache_stats == {}
            assert len(session.cache) == 0

    def test_concurrent_shards_report_exact_per_run_stats(self):
        spec = StudySpec(
            study="binomial",
            params={
                "task_names": ["entailment", "sentiment"],
                "n_splits": 3,
                "dataset_size": 200,
            },
            random_state=2,
        )
        with Session() as session:
            merged = session.submit(spec).result()
            totals = session.cache.stats()
        # Per-shard deltas are counted through per-run views, so the merged
        # counters equal the shared cache's totals even though the shards
        # ran concurrently against the same cache.
        assert merged.cache_stats["hits"] == totals["hits"]
        assert merged.cache_stats["misses"] == totals["misses"]

    def test_external_cache_object_is_shared(self):
        cache = MeasurementCache(max_entries=100)
        with Session(cache=cache) as session:
            session.run(_smoke_spec("hpo_curves", n_jobs=1))
        assert cache.stats()["entries"] > 0


# ----------------------------------------------------------------------
# Session.submit: streaming handles
# ----------------------------------------------------------------------
class TestSessionSubmit:
    def test_sharded_submit_streams_and_merges_deterministically(self):
        spec = StudySpec(
            study="variance",
            params={
                "task_names": ["entailment", "sentiment"],
                "n_seeds": 3,
                "include_hpo": False,
                "dataset_size": 200,
            },
            random_state=0,
        )
        with Session() as session:
            handle = session.submit(spec)
            assert len(handle) == 2
            partials = list(handle)
            merged = handle.result()
            assert handle.done()
        assert len(partials) == 2
        tasks = [row["task"] for row in merged.to_rows()]
        # Submission order, not completion order: entailment rows first.
        assert tasks == sorted(tasks, key=["entailment", "sentiment"].index)
        # Resubmission is deterministic: same spec, same merged rows,
        # regardless of which shard finished first.
        with Session() as session:
            again = session.submit(spec).result()
        assert json.dumps(merged.to_rows(), sort_keys=True) == json.dumps(
            again.to_rows(), sort_keys=True
        )

    def test_merged_result_points_to_parts_for_native_attributes(self):
        spec = StudySpec(
            study="sample_size", params={"gammas": [0.7, 0.75]}, random_state=0
        )
        with Session() as session:
            merged = session.submit(spec).result()
        with pytest.raises(AttributeError, match=r"\.parts"):
            merged.gammas
        assert len(merged.raw.parts) == 2
        assert float(merged.raw.parts[0].gammas[0]) == 0.7

    def test_file_cache_persisted_even_after_close(self, tmp_path):
        path = str(tmp_path / "late")
        session = Session(cache_dir=path)
        session.close()
        session.run(_smoke_spec("hpo_curves", n_jobs=1))
        with Session(cache_dir=path) as fresh:
            replay = fresh.run(_smoke_spec("hpo_curves", n_jobs=1))
        assert replay.cache_stats["misses"] == 0

    def test_unsharded_study_submits_single_future(self):
        with Session() as session:
            handle = session.submit(_smoke_spec("sota", n_jobs=1))
            assert len(handle) == 1
            assert handle.result(timeout=60).to_rows()

    def test_submit_after_close_raises(self):
        session = Session()
        session.close()
        with pytest.raises(RuntimeError, match="closed Session"):
            session.submit(_smoke_spec("sota", n_jobs=1))


# ----------------------------------------------------------------------
# The determinism contract: submit(spec) == run(spec), bitwise
# ----------------------------------------------------------------------
#: Multi-shard parameters for every study with a shard axis, at a scale
#: that keeps the full matrix in CI budget.
SHARD_PARITY_PARAMS = {
    "variance": {
        "task_names": ["entailment", "sentiment"],
        "n_seeds": 3,
        "include_hpo": False,
        "dataset_size": 200,
    },
    "normality": {
        "task_names": ["entailment", "sentiment"],
        "n_seeds": 3,
        "dataset_size": 200,
    },
    "estimator": {
        "task_names": ["entailment", "sentiment"],
        "k_max": 3,
        "n_repetitions": 2,
        "hpo_budget": 2,
        "dataset_size": 200,
    },
    "binomial": {
        "task_names": ["entailment", "sentiment"],
        "n_splits": 3,
        "dataset_size": 200,
    },
    "hpo_curves": {
        "task_names": ["entailment", "sentiment"],
        "budget": 2,
        "n_repetitions": 2,
        "dataset_size": 200,
    },
    "sample_size": {"gammas": [0.7, 0.75, 0.9]},
    "layer_ablation": {
        "task_names": ["entailment"],
        "combos": ["none", "dropout", "order", "all"],
        "n_seeds": 3,
        "dataset_size": 150,
    },
}


def _canon(result) -> str:
    return json.dumps(result.to_rows(), sort_keys=True, default=str)


class TestShardParity:
    """Sharded streaming execution is bitwise-equal to monolithic execution.

    Seeds are derived from scope paths (task / gamma / repetition), never
    from a shared rng stream, so a shard computes exactly the measurements
    the full run assigns to its key — at any worker count.
    """

    def test_matrix_covers_every_shardable_study(self):
        shardable = {info.name for info in iter_studies() if info.shard_param}
        assert shardable == set(SHARD_PARITY_PARAMS)

    @pytest.mark.parametrize("name", sorted(SHARD_PARITY_PARAMS))
    def test_submit_equals_run_bitwise(self, name):
        rows_by_n_jobs = {}
        for n_jobs in (1, 4):
            spec = StudySpec(
                study=name,
                params=SHARD_PARITY_PARAMS[name],
                n_jobs=n_jobs,
                random_state=11,
            )
            with Session() as session:
                full = session.run(spec)
                handle = session.submit(spec)
                assert len(handle) > 1
                merged = handle.result()
            axis = get_study(name).shard_param
            assert all(key.startswith(f"{axis}=") for key in handle.keys)
            rows_by_n_jobs[n_jobs] = _canon(full)
            assert _canon(full) == _canon(merged), (name, n_jobs)
        # And the whole thing is independent of the worker count.
        assert rows_by_n_jobs[1] == rows_by_n_jobs[4], name

    def test_layer_ablation_parity_across_batch_sizes(self):
        """The ablation grid survives vectorized multi-seed batching too:
        batch_size 1 vs 4, full vs sharded, all bitwise-equal."""
        spec = StudySpec(
            study="layer_ablation",
            params=SHARD_PARITY_PARAMS["layer_ablation"],
            random_state=11,
        )
        rows_by_batch = {}
        for batch_size in (1, 4):
            with Session(batch_size=batch_size, backend="thread") as session:
                full = session.run(spec)
                handle = session.submit(spec)
                assert len(handle) > 1
                merged = handle.result()
            assert _canon(full) == _canon(merged), batch_size
            rows_by_batch[batch_size] = _canon(full)
        assert rows_by_batch[1] == rows_by_batch[4]

    def test_sharded_submit_replays_run_measurements(self):
        """Same session: the sharded rerun hits the cache for every key —
        direct evidence that shards derive the very same seeds."""
        spec = StudySpec(
            study="binomial",
            params=SHARD_PARITY_PARAMS["binomial"],
            random_state=3,
        )
        with Session() as session:
            first = session.run(spec)
            merged = session.submit(spec).result()
        assert first.cache_stats["misses"] > 0
        assert merged.cache_stats["misses"] == 0
        assert merged.cache_stats["hits"] == first.cache_stats["misses"]

    def test_duplicate_shard_values_fall_back_to_single_future(self):
        spec = StudySpec(
            study="sample_size",
            params={"gammas": [0.75, 0.75]},
            random_state=0,
        )
        with Session() as session:
            handle = session.submit(spec)
            assert len(handle) == 1
            assert len(handle.result().to_rows()) == 2

    def test_non_list_shard_param_never_crashes_submit_itself(self):
        # A scalar where the driver expects a list is the driver's error to
        # raise — inside the future, not synchronously in _shard.
        spec = StudySpec(study="sample_size", params={"gammas": 0.75})
        with Session() as session:
            handle = session.submit(spec)
            assert len(handle) == 1
            with pytest.raises(TypeError):
                handle.result()


# ----------------------------------------------------------------------
# Concurrent per-key persistence (Session cache_dir)
# ----------------------------------------------------------------------
class TestSessionCacheDir:
    """``cache_dir`` names a per-key store directory, the one on-disk
    format: written through on every measurement, never a pickle file."""

    def test_cache_dir_persists_and_rewarns(self, tmp_path):
        directory = str(tmp_path / "store")
        spec = _smoke_spec("hpo_curves", n_jobs=1)
        with Session(cache_dir=directory) as session:
            cold = session.run(spec)
            # Written through at put time, before close().
            names = sorted(os.listdir(directory))
            assert "objects" in names
            assert not [name for name in names if name.endswith(".pkl")]
            assert len(FileStore(directory)) > 0
        assert cold.cache_stats["misses"] > 0
        with Session(cache_dir=directory) as fresh:
            warm = fresh.run(spec)
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hits"] > 0
        assert fresh.cache.store_hits > 0
        assert json.dumps(cold.to_rows(), sort_keys=True) == json.dumps(
            warm.to_rows(), sort_keys=True
        )

    def test_cache_dir_and_cache_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="mutually exclusive"):
            Session(cache=MeasurementCache(), cache_dir=str(tmp_path))

    def test_cache_string_is_rejected_and_creates_nothing(self, tmp_path):
        # A directory goes to cache_dir; cache takes only a cache object.
        named = tmp_path / "named-store"
        with pytest.raises(TypeError, match="cache_dir"):
            Session(cache=str(named))
        assert not named.exists()

    def test_spec_cache_false_skips_the_store(self, tmp_path):
        # cache=False opts a study out of the session's store as well as
        # its memory: nothing is written, so the next cached run misses.
        directory = str(tmp_path / "store")
        spec = _smoke_spec("binomial", n_jobs=1)
        with Session(cache_dir=directory) as session:
            uncached = session.run(spec.replace(cache=False))
            assert uncached.cache_stats == {}
            assert len(FileStore(directory)) == 0
            cached = session.run(spec)
        assert cached.cache_stats["misses"] > 0
        assert cached.cache_stats.get("hits", 0) == 0
        assert len(FileStore(directory)) > 0
        assert cached.to_rows() == uncached.to_rows()

    def test_concurrent_sessions_share_cache_dir_without_corruption(self, tmp_path):
        """Two sessions running concurrently against one cache_dir: both
        persist, the store stays intact, and a fresh session replays every
        measurement without a single refit."""
        directory = str(tmp_path / "shared")
        specs = [
            StudySpec(
                study="binomial",
                params={
                    "task_names": [task],
                    "n_splits": 3,
                    "dataset_size": 200,
                },
                random_state=3,
            )
            for task in ("entailment", "sentiment")
        ]

        def run_session(spec):
            with Session(cache_dir=directory) as session:
                return session.run(spec).cache_stats

        with ThreadPoolExecutor(2) as pool:
            stats = list(pool.map(run_session, specs))
        assert all(s["misses"] > 0 for s in stats)
        with Session(cache_dir=directory) as fresh:
            for spec in specs:
                replay = fresh.run(spec)
                assert replay.cache_stats["misses"] == 0
                assert replay.cache_stats["hits"] > 0

    def test_eviction_counter_reported(self):
        spec = _smoke_spec("hpo_curves", n_jobs=1)
        with Session(max_cache_entries=2) as session:
            result = session.run(spec)
        assert result.cache_stats["evictions"] > 0
        assert "evictions=" in result.summary()

    def test_close_writes_nothing_to_the_store(self, tmp_path):
        # The object tree is the store's only record: closing a session
        # that ran a study adds, rewrites and removes no file under it.
        directory = str(tmp_path / "store")

        def files():
            found = {}
            for root, _, names in os.walk(directory):
                for name in names:
                    stat = os.stat(os.path.join(root, name))
                    found[os.path.join(root, name)] = (
                        stat.st_size, stat.st_mtime_ns
                    )
            return found

        session = Session(cache_dir=directory)
        try:
            session.run(_smoke_spec("binomial", n_jobs=1))
            before = files()
        finally:
            session.close()
        assert len(FileStore(directory)) > 0
        assert files() == before

    def test_existing_file_is_rejected_and_left_alone(self, tmp_path):
        old = tmp_path / "old-cache.pkl"
        old.write_bytes(b"a whole-cache pickle from an older version")
        with pytest.raises(ValueError, match="old-cache.pkl") as error:
            Session(cache_dir=str(old))
        assert "per-key store directories" in str(error.value)
        assert old.read_bytes() == b"a whole-cache pickle from an older version"


# ----------------------------------------------------------------------
# Cancellation propagation
# ----------------------------------------------------------------------
class TestCancellation:
    def _make_handle(self, pool, first_started, release):
        spec = StudySpec(study="sample_size", params={"gammas": [0.7, 0.75]})
        shards = Session._shard(spec, get_study("sample_size"))
        event = threading.Event()

        def blocked_shard(shard_spec):
            first_started.set()
            release.wait(timeout=10)
            if event.is_set():
                raise StudyCancelled("stopped at the batch boundary")
            with Session() as session:
                return session.run(shard_spec)

        keys = list(shards)
        futures = {
            keys[0]: pool.submit(blocked_shard, shards[keys[0]]),
            keys[1]: pool.submit(blocked_shard, shards[keys[1]]),
        }
        return StudyHandle(spec, shards, futures, cancel_event=event), event

    def test_cancel_sets_event_and_cancels_pending_shards(self):
        first_started, release = threading.Event(), threading.Event()
        with ThreadPoolExecutor(1) as pool:  # one worker: shard 2 must queue
            handle, event = self._make_handle(pool, first_started, release)
            assert first_started.wait(timeout=10)
            assert not handle.cancelled()
            cancelled_all = handle.cancel()
            release.set()
            assert event.is_set() and handle.cancelled()
            # The queued shard never started; the running one aborted at
            # its next cancellation point.
            assert not cancelled_all  # shard 1 was already running
            with pytest.raises((CancelledError, StudyCancelled)):
                handle.result()
            # Streaming consumers drain without raising.
            assert list(handle.partial_results()) == []
            assert handle.done()

    def test_submit_wires_cancel_event_into_executors(self):
        spec = StudySpec(
            study="variance",
            params={
                "task_names": ["entailment", "sentiment"],
                "n_seeds": 3,
                "include_hpo": False,
                "dataset_size": 200,
            },
            random_state=0,
        )
        with Session(max_concurrent_studies=1) as session:
            handle = session.submit(spec)
            handle.cancel()
            assert handle.cancelled()
            # Whatever had not finished was stopped; draining never hangs.
            list(handle.partial_results())
            assert handle.done()

    def test_cancel_after_completion_is_noop(self):
        with Session() as session:
            handle = session.submit(_smoke_spec("sample_size", n_jobs=1))
            result = handle.result()
        assert handle.cancel() is False
        assert result.to_rows()


# ----------------------------------------------------------------------
# CLI front door (python -m repro)
# ----------------------------------------------------------------------
class TestCLI:
    def test_run_prints_summary(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = StudySpec(
            study="sample_size", params={"gammas": [0.7, 0.75]}, random_state=0
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "study=sample_size" in out
        assert "Figure C.1" in out

    def test_run_with_overrides_and_cache_dir(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = _smoke_spec("hpo_curves", n_jobs=1)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        store = tmp_path / "store"
        assert main(["run", str(path), "--n-jobs", "2", "--cache-dir", str(store)]) == 0
        first = capsys.readouterr().out
        assert "cache hits/misses=" in first
        # Second invocation (fresh process in real life) replays from the store.
        assert main(["run", str(path), "--cache-dir", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_stats"]["misses"] == 0
        assert payload["rows"]

    def test_list_names_every_study(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_STUDIES:
            assert name in out


# ----------------------------------------------------------------------
# StudyResult adapter
# ----------------------------------------------------------------------
class TestStudyResult:
    def test_requires_rows_and_report(self):
        with pytest.raises(TypeError, match="does not implement"):
            StudyResult(object())

    def test_delegates_to_raw(self):
        class Raw:
            def rows(self):
                return [{"x": 1}]

            def report(self):
                return "table"

            extra = "native-attribute"

        result = StudyResult(Raw())
        assert result.extra == "native-attribute"
        assert result.to_rows() == [{"x": 1}]
        assert "table" in result.summary()
