"""Tests for the unified Study API (repro.api).

Covers the three layers of the front door:

* ``StudySpec`` — validation and the JSON round-trip (property-tested);
* the registry — completeness over the experiment layer and metadata
  integrity (smoke params must be valid driver kwargs);
* ``Session`` — every registered study runs at tiny scale, is
  bitwise-identical at ``n_jobs=1`` vs ``n_jobs=2``, shares one warm
  cache across runs, and its shards — as the work queue's coordinator
  splits a study — merge to the whole run bitwise.
"""

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments as experiments
from repro.api import (
    Session,
    StudySpec,
    SuiteSpec,
    get_study,
    iter_studies,
    list_studies,
    merge_results,
)
from repro.api.registry import ENGINE_PARAMS
from repro.api.results import StudyResult
from repro.engine import MeasurementCache, StudyCancelled
from repro.engine.cache import FileStore
from repro.sched import Coordinator

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
        specs = [
            StudySpec(
                study="binomial",
                params={
                    "task_names": [task],
                    "n_splits": 3,
                    "dataset_size": 200,
                },
                random_state=2,
            )
            for task in ("entailment", "sentiment")
        ]
        with Session() as session:
            with ThreadPoolExecutor(2) as pool:
                results = list(pool.map(session.run, specs))
            totals = session.cache.stats()
        # Each run counts through its own view, so the two runs' counters
        # add up to the shared cache's totals even though they ran
        # concurrently against the same cache.
        assert all(result.cache_stats["misses"] > 0 for result in results)
        assert sum(r.cache_stats["hits"] for r in results) == totals["hits"]
        assert sum(r.cache_stats["misses"] for r in results) == totals["misses"]

    def test_external_cache_object_is_shared(self):
        cache = MeasurementCache(max_entries=100)
        with Session(cache=cache) as session:
            session.run(_smoke_spec("hpo_curves", n_jobs=1))
        assert cache.stats()["entries"] > 0

    def test_file_cache_persisted_even_after_close(self, tmp_path):
        path = str(tmp_path / "late")
        session = Session(cache_dir=path)
        session.close()
        session.run(_smoke_spec("hpo_curves", n_jobs=1))
        with Session(cache_dir=path) as fresh:
            replay = fresh.run(_smoke_spec("hpo_curves", n_jobs=1))
        assert replay.cache_stats["misses"] == 0

    @pytest.mark.parametrize(
        "keyword", ["max_cache_entries", "max_cache_bytes", "max_concurrent_studies"]
    )
    def test_removed_keywords_raise(self, keyword):
        # A memory budget goes on the cache the session is handed, so a
        # session can never hold a budget it silently ignores.
        with pytest.raises(TypeError, match=keyword):
            Session(cache=MeasurementCache(), **{keyword: 2})
        with pytest.raises(TypeError, match=keyword):
            Session(**{keyword: 2})


# ----------------------------------------------------------------------
# The determinism contract: merged shards == run(spec), bitwise
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


def _plan(spec, tmp_path):
    """The coordinator's shard split of ``spec``: one suite member planned
    with ``shard_members=True``, its tasks in plan order."""
    suite = SuiteSpec(name="parity", specs=[("member", spec)])
    with Session(cache_dir=str(tmp_path / "plan")) as planner:
        return Coordinator(planner, suite, shard_members=True).plan()


def _run_shards(session, tasks, spec):
    """Run each planned task through ``Session.run``, shard by shard, and
    merge the parts in plan order, as the coordinator assembles them."""
    return merge_results([session.run(task.spec) for task in tasks], spec=spec)


class TestShardParity:
    """Sharded execution is bitwise-equal to monolithic execution.

    Seeds are derived from scope paths (task / gamma / repetition), never
    from a shared rng stream, so a shard computes exactly the measurements
    the full run assigns to its key — at any worker count.
    """

    def test_matrix_covers_every_shardable_study(self):
        shardable = {info.name for info in iter_studies() if info.shard_param}
        assert shardable == set(SHARD_PARITY_PARAMS)

    @pytest.mark.parametrize("name", sorted(SHARD_PARITY_PARAMS))
    def test_merged_shards_equal_run_bitwise(self, name, tmp_path):
        rows_by_n_jobs = {}
        for n_jobs in (1, 4):
            spec = StudySpec(
                study=name,
                params=SHARD_PARITY_PARAMS[name],
                n_jobs=n_jobs,
                random_state=11,
            )
            tasks = _plan(spec, tmp_path)
            assert len(tasks) > 1
            axis = get_study(name).shard_param
            assert all(task.shard_key.startswith(f"{axis}=") for task in tasks)
            # Separate sessions: the shards compute, not replay, the rows.
            with Session() as session:
                full = session.run(spec)
            with Session() as session:
                merged = _run_shards(session, tasks, spec)
            rows_by_n_jobs[n_jobs] = _canon(full)
            assert _canon(full) == _canon(merged), (name, n_jobs)
        # And the whole thing is independent of the worker count.
        assert rows_by_n_jobs[1] == rows_by_n_jobs[4], name

    def test_layer_ablation_parity_across_batch_sizes(self, tmp_path):
        """The ablation grid survives vectorized multi-seed batching too:
        batch_size 1 vs 4, full vs sharded, all bitwise-equal."""
        spec = StudySpec(
            study="layer_ablation",
            params=SHARD_PARITY_PARAMS["layer_ablation"],
            random_state=11,
        )
        tasks = _plan(spec, tmp_path)
        assert len(tasks) > 1
        rows_by_batch = {}
        for batch_size in (1, 4):
            with Session(batch_size=batch_size, backend="thread") as session:
                full = session.run(spec)
            with Session(batch_size=batch_size, backend="thread") as session:
                merged = _run_shards(session, tasks, spec)
            assert _canon(full) == _canon(merged), batch_size
            rows_by_batch[batch_size] = _canon(full)
        assert rows_by_batch[1] == rows_by_batch[4]

    def test_sharded_rerun_replays_run_measurements(self, tmp_path):
        """Same session: the sharded rerun hits the cache for every key —
        direct evidence that shards derive the very same seeds."""
        spec = StudySpec(
            study="binomial",
            params=SHARD_PARITY_PARAMS["binomial"],
            random_state=3,
        )
        tasks = _plan(spec, tmp_path)
        with Session() as session:
            first = session.run(spec)
            merged = _run_shards(session, tasks, spec)
        assert first.cache_stats["misses"] > 0
        assert merged.cache_stats["misses"] == 0
        assert merged.cache_stats["hits"] == first.cache_stats["misses"]
        assert _canon(first) == _canon(merged)

    def test_merged_result_points_to_parts_for_native_attributes(self, tmp_path):
        spec = StudySpec(
            study="sample_size", params={"gammas": [0.7, 0.75]}, random_state=0
        )
        with Session() as session:
            merged = _run_shards(session, _plan(spec, tmp_path), spec)
        with pytest.raises(AttributeError, match=r"\.parts"):
            merged.gammas
        assert len(merged.raw.parts) == 2
        assert float(merged.raw.parts[0].gammas[0]) == 0.7

    def test_duplicate_shard_values_plan_one_task(self, tmp_path):
        # Duplicates would collapse onto one key: the spec runs whole, so
        # its rows appear once per occurrence.
        spec = StudySpec(
            study="sample_size",
            params={"gammas": [0.75, 0.75]},
            random_state=0,
        )
        (task,) = _plan(spec, tmp_path)
        assert task.spec == spec and task.shard_key is None
        with Session() as session:
            assert len(session.run(task.spec).to_rows()) == 2

    def test_scalar_shard_value_plans_one_task(self, tmp_path):
        # A scalar where the driver expects a list is the driver's error
        # to raise when the task runs — planning never raises on it.
        spec = StudySpec(study="sample_size", params={"gammas": 0.75})
        (task,) = _plan(spec, tmp_path)
        assert task.spec == spec
        with Session() as session:
            with pytest.raises(TypeError):
                session.run(task.spec)

    def test_unsharded_study_plans_one_task(self, tmp_path):
        spec = _smoke_spec("sota", n_jobs=1)
        (task,) = _plan(spec, tmp_path)
        assert task.spec == spec
        with Session() as session:
            assert session.run(task.spec).to_rows()


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
        with Session(cache=MeasurementCache(max_entries=2)) as session:
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
    def test_run_wires_cancel_event_into_executors(self):
        # The event is set after the first work item, so the study must
        # stop at its next item or batch boundary instead of finishing.
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
        event = threading.Event()
        with Session() as session:
            with pytest.raises(StudyCancelled):
                session.run(spec, cancel_event=event, tick=event.set)
            # The event binds one run only: the session runs on.
            assert session.run(spec).to_rows()


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
