"""Engine micro-benchmark — serial vs parallel vs cached measurements.

Tracks the speedup the measurement engine delivers on the paper's core
workload (a per-source variance study, i.e. a batch of independent
``BenchmarkProcess.measure`` calls):

* **serial** — the historical inline-loop behaviour (``n_jobs=1``);
* **batched** — the same runner with ``batch_size=8``: compatible seeds
  grouped into one vectorized multi-seed fit per batch (stacked weight
  tensors, one einsum-shaped pass), still a single process;
* **parallel** — the same pre-drawn batch fanned out over a 4-worker
  process pool;
* **parallel+batched** — both at once: batches of vectorized fits
  dispatched across the process pool (the ``batch_size>1`` default path);
* **cached** — a warm :class:`~repro.engine.cache.MeasurementCache`
  replaying the identical batch without a single refit;
* **store replay** — a *fresh* cache bound to a per-key ``cache_dir``
  file store (one atomic file per measurement hash) replaying the batch
  purely from disk, as a concurrent shard worker or a restarted process
  would.

All variants must produce bitwise-identical scores; on a multi-core host
the parallel run is expected to be ≥2x faster than serial, the cached
replay orders of magnitude faster still, and the store replay must serve
every measurement from disk (zero misses).  The timings land in the
``BENCH_*.json`` perf trajectory via ``extra_info`` *and* in the
committed ``benchmarks/BENCH_engine.json`` record: every phase merges its
numbers into that file **before** asserting anything, so the trajectory
is never empty — a failing speedup claim still leaves the measured
numbers behind for the next reader.  The record's ``host`` block names the
machine the numbers come from (CPU model, CPUs online and in the affinity
mask, Python, numpy and its BLAS, load average).  Per-backend dispatch overhead (the
wall-clock cost of pushing one no-op item through each executor backend;
for the process backend both a first map, which forks the executor's
pool, and a second map on that warm pool) rides along so batching wins
can be attributed: batching amortizes exactly this overhead.

``test_suite_cold_vs_resume`` covers the suite-manifest layer on top: a
three-member suite runs cold against a byte-budgeted shared store, a
fresh session then replays every measurement from the store (zero
misses), and a ``resume`` pass replays completion records without a
single cache lookup — with all three passes bitwise-identical and the
store never exceeding its budget.

``test_suite_distributed`` covers the work-queue scheduler: the same
suite executed through ``<cache_dir>/queue/`` by 1 vs 3 external
``python -m repro worker`` processes (coordinator watching, not
participating), asserting bitwise-identical rows either way and tracking
both wall-clocks in the perf trajectory.  No speedup is asserted — at
smoke scale interpreter start-up dominates — the phase exists to keep the
distributed path exercised and its overhead visible.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

import json

from conftest import run_once
import repro
from repro.api import Session, StudySpec, SuiteSpec
from repro.core.benchmark import BenchmarkProcess
from repro.core.sources import VarianceSource
from repro.core.variance import variance_decomposition_study
from repro.data.tasks import get_task
from repro.engine import FileStore, MeasurementCache, StudyRunner
from repro.engine.executor import ParallelExecutor
from repro.utils.tables import format_table

N_WORKERS = 4

BATCH_SIZE = 8

#: The committed perf trajectory for this module.  Tests merge their
#: numbers here *before* asserting, so the record survives a red run.
BENCH_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_engine.json"
)


def host_record() -> dict:
    """The host the numbers were measured on: CPUs (online and in this
    process's affinity mask), CPU model, Python, numpy and its BLAS, and
    the 1-minute load average when the record was written."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas_name = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "loadavg_1m": os.getloadavg()[0],
    }


def record_bench(phase: str, payload: dict) -> None:
    """Merge one phase's numbers into ``BENCH_engine.json`` atomically."""
    record = {}
    if os.path.exists(BENCH_PATH):
        try:
            with open(BENCH_PATH) as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError):
            record = {}
    record["schema"] = 1
    record["scale"] = os.environ.get("REPRO_BENCH_SCALE", "quick")
    record["cpu_count"] = os.cpu_count()
    record["host"] = host_record()
    record[phase] = payload
    tmp = BENCH_PATH + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, BENCH_PATH)


def _noop(item):
    return item


def _timed_noop_map(executor: ParallelExecutor, n_items: int) -> float:
    start = time.perf_counter()
    executor.map(_noop, list(range(n_items)))
    return (time.perf_counter() - start) / n_items


def _dispatch_overhead(n_items: int = 64) -> dict:
    """Per-item cost of pushing a no-op through each executor backend.

    This is the overhead batching amortizes: a batch of B measurements
    pays it once instead of B times.  ``process`` is the first map on a
    fresh executor, so it includes forking the pool — what a session pays
    once; ``process_warm`` is a second map on the same executor, which
    reuses that pool — what every later batch pays.
    """
    overhead = {}
    for backend, n_jobs in (
        ("serial", 1),
        ("thread", N_WORKERS),
        ("process", N_WORKERS),
    ):
        executor = ParallelExecutor(n_jobs, backend=backend)
        try:
            overhead[backend] = _timed_noop_map(executor, n_items)
            if backend == "process":
                overhead["process_warm"] = _timed_noop_map(executor, n_items)
        finally:
            executor.close()
    return overhead

SOURCES = (
    VarianceSource.DATA,
    VarianceSource.ORDER,
    VarianceSource.INIT,
)


def _timed_study(process, runner, *, n_seeds, random_state):
    start = time.perf_counter()
    decomposition = variance_decomposition_study(
        process,
        sources=SOURCES,
        n_seeds=n_seeds,
        random_state=random_state,
        runner=runner,
    )
    elapsed = time.perf_counter() - start
    scores = np.concatenate([decomposition.scores[name] for name in sorted(decomposition.scores)])
    return elapsed, scores


def _run_engine_comparison(*, n_seeds, dataset_size, random_state=0):
    task = get_task("entailment")
    dataset = task.make_dataset(random_state=random_state, n_samples=dataset_size)
    process = BenchmarkProcess(dataset, task.make_pipeline())

    serial_time, serial_scores = _timed_study(
        process, StudyRunner(process), n_seeds=n_seeds, random_state=random_state
    )
    batched_time, batched_scores = _timed_study(
        process,
        StudyRunner(process, batch_size=BATCH_SIZE),
        n_seeds=n_seeds,
        random_state=random_state,
    )
    parallel_batched_time, parallel_batched_scores = _timed_study(
        process,
        StudyRunner(
            process,
            n_jobs=N_WORKERS,
            backend="process",
            batch_size=BATCH_SIZE,
        ),
        n_seeds=n_seeds,
        random_state=random_state,
    )
    parallel_time, parallel_scores = _timed_study(
        process,
        StudyRunner(process, n_jobs=N_WORKERS, backend="process"),
        n_seeds=n_seeds,
        random_state=random_state,
    )
    cache = MeasurementCache()
    cached_runner = StudyRunner(process, cache=cache)
    warm_time, warm_scores = _timed_study(
        process, cached_runner, n_seeds=n_seeds, random_state=random_state
    )
    cached_time, cached_scores = _timed_study(
        process, cached_runner, n_seeds=n_seeds, random_state=random_state
    )
    # Per-key file store: one worker warms the directory (write-through),
    # then a fresh cache — a different worker/process in real use —
    # replays the identical study purely from disk.
    with tempfile.TemporaryDirectory() as directory:
        _, store_warm_scores = _timed_study(
            process,
            StudyRunner(process, cache=MeasurementCache(cache_dir=directory)),
            n_seeds=n_seeds,
            random_state=random_state,
        )
        store_cache = MeasurementCache(cache_dir=directory)
        store_time, store_scores = _timed_study(
            process,
            StudyRunner(process, cache=store_cache),
            n_seeds=n_seeds,
            random_state=random_state,
        )
        store_stats = store_cache.stats()
    return {
        "serial_time": serial_time,
        "batched_time": batched_time,
        "parallel_time": parallel_time,
        "parallel_batched_time": parallel_batched_time,
        "warm_time": warm_time,
        "cached_time": cached_time,
        "store_time": store_time,
        "batched_speedup": serial_time / batched_time,
        "parallel_speedup": serial_time / parallel_time,
        "parallel_batched_speedup": serial_time / parallel_batched_time,
        "cached_speedup": serial_time / cached_time,
        "store_speedup": serial_time / store_time,
        "dispatch_overhead": _dispatch_overhead(),
        "cache_stats": cache.stats(),
        "store_stats": store_stats,
        "scores": {
            "serial": serial_scores,
            "batched": batched_scores,
            "parallel": parallel_scores,
            "parallel_batched": parallel_batched_scores,
            "warm": warm_scores,
            "cached": cached_scores,
            "store_warm": store_warm_scores,
            "store": store_scores,
        },
        "n_measurements": int(serial_scores.size),
    }


def test_engine_speedup(benchmark, scale):
    result = run_once(
        benchmark,
        _run_engine_comparison,
        n_seeds=scale["n_seeds"],
        dataset_size=scale["dataset_size"],
    )
    rows = [
        {"variant": "serial (n_jobs=1)", "seconds": result["serial_time"], "speedup": 1.0},
        {
            "variant": f"batched (batch_size={BATCH_SIZE}, serial)",
            "seconds": result["batched_time"],
            "speedup": result["batched_speedup"],
        },
        {
            "variant": f"parallel (n_jobs={N_WORKERS}, process)",
            "seconds": result["parallel_time"],
            "speedup": result["parallel_speedup"],
        },
        {
            "variant": f"parallel+batched (n_jobs={N_WORKERS}, batch_size={BATCH_SIZE})",
            "seconds": result["parallel_batched_time"],
            "speedup": result["parallel_batched_speedup"],
        },
        {
            "variant": "cached replay",
            "seconds": result["cached_time"],
            "speedup": result["cached_speedup"],
        },
        {
            "variant": "per-key store replay (fresh cache)",
            "seconds": result["store_time"],
            "speedup": result["store_speedup"],
        },
    ]
    print()
    print(
        format_table(
            rows,
            columns=["variant", "seconds", "speedup"],
            title=(
                f"Engine — {result['n_measurements']} measurements, "
                f"{os.cpu_count()} cores"
            ),
        )
    )
    recorded = (
        "n_measurements",
        "serial_time",
        "batched_time",
        "parallel_time",
        "parallel_batched_time",
        "cached_time",
        "store_time",
        "batched_speedup",
        "parallel_speedup",
        "parallel_batched_speedup",
        "cached_speedup",
        "store_speedup",
        "dispatch_overhead",
        "cache_stats",
        "store_stats",
    )
    for key in recorded:
        benchmark.extra_info[key] = result[key]

    # Persist the trajectory record *before* any assertion: a red run
    # still leaves its measured numbers behind.
    record_bench("engine", {key: result[key] for key in recorded})

    # Correctness invariants hold everywhere: every execution mode produces
    # bitwise-identical scores, and the replay never refits.
    scores = result["scores"]
    np.testing.assert_array_equal(scores["serial"], scores["batched"])
    np.testing.assert_array_equal(scores["serial"], scores["parallel"])
    np.testing.assert_array_equal(scores["serial"], scores["parallel_batched"])
    np.testing.assert_array_equal(scores["serial"], scores["warm"])
    np.testing.assert_array_equal(scores["serial"], scores["cached"])
    np.testing.assert_array_equal(scores["serial"], scores["store_warm"])
    np.testing.assert_array_equal(scores["serial"], scores["store"])
    stats = result["cache_stats"]
    assert stats["hits"] == result["n_measurements"]
    assert stats["misses"] == result["n_measurements"]

    # The fresh cache served the whole study from the per-key file store:
    # every lookup a hit, every hit from disk, not a single refit.
    store_stats = result["store_stats"]
    assert store_stats["misses"] == 0
    assert store_stats["hits"] == result["n_measurements"]
    assert store_stats["store_hits"] > 0

    # The cached replay skips every fit and must be dramatically faster.
    assert result["cached_speedup"] > 10

    # Vectorized multi-seed fits need no extra cores: stacking B weight
    # tensors into one pass must beat B separate fits even on one core.
    assert result["batched_speedup"] > 1.0

    # The parallel claim needs real cores to test; a 4-worker study on a
    # multi-core host must cut wall-clock by at least 2x.
    if (os.cpu_count() or 1) >= 4:
        assert result["parallel_speedup"] >= 2.0


# ----------------------------------------------------------------------
# Suite manifests: cold run vs store replay vs record resume
# ----------------------------------------------------------------------
SUITE_STORE_BUDGET = 64 << 20  # 64 MiB, the CI smoke budget


def _suite_rows(result):
    """Canonical per-member rows of a SuiteResult, for bitwise comparison."""
    payload = json.loads(result.to_json())
    return [
        json.dumps(entry["rows"], sort_keys=True) for entry in payload["results"]
    ]


def _run_suite_comparison(*, n_seeds, n_splits, dataset_size, random_state=0):
    with tempfile.TemporaryDirectory() as directory:
        suite = SuiteSpec(
            name="engine-suite",
            cache_dir=directory,
            max_store_bytes=SUITE_STORE_BUDGET,
            specs=[
                (
                    "fig1-variance",
                    StudySpec(
                        study="variance",
                        params={
                            "task_names": ["entailment"],
                            "n_seeds": n_seeds,
                            "include_hpo": False,
                            "dataset_size": dataset_size,
                        },
                        random_state=random_state,
                    ),
                ),
                (
                    "fig2-binomial",
                    StudySpec(
                        study="binomial",
                        params={
                            "task_names": ["entailment"],
                            "n_splits": n_splits,
                            "dataset_size": dataset_size,
                        },
                        random_state=random_state,
                    ),
                ),
                (
                    "figC1-sample-size",
                    StudySpec(
                        study="sample_size",
                        params={"gammas": [0.7, 0.75, 0.9]},
                        random_state=random_state,
                    ),
                ),
            ],
        )
        start = time.perf_counter()
        with Session.for_suite(suite) as session:
            cold = session.run_suite(suite)
        cold_time = time.perf_counter() - start
        # A fresh session (a restarted process in real use) replays every
        # measurement from the per-key store: zero misses, nonzero store
        # hits, not a single refit.
        start = time.perf_counter()
        with Session.for_suite(suite) as session:
            warm = session.run_suite(suite)
            warm_store_stats = session.cache.stats()
        warm_time = time.perf_counter() - start
        # Resume replays completion records: zero cache lookups at all.
        start = time.perf_counter()
        with Session.for_suite(suite) as session:
            resumed = session.run_suite(suite, resume=True)
        resume_time = time.perf_counter() - start
        store_bytes = FileStore(directory).total_bytes
    return {
        "cold_time": cold_time,
        "warm_time": warm_time,
        "resume_time": resume_time,
        "cold_stats": cold.cache_stats,
        "warm_stats": warm.cache_stats,
        "warm_store_stats": warm_store_stats,
        "resume_stats": resumed.cache_stats,
        "replayed": resumed.replayed,
        "names": suite.names,
        "store_bytes": store_bytes,
        "rows": {
            "cold": _suite_rows(cold),
            "warm": _suite_rows(warm),
            "resumed": _suite_rows(resumed),
        },
    }


def test_suite_cold_vs_resume(benchmark, scale):
    result = run_once(
        benchmark,
        _run_suite_comparison,
        n_seeds=scale["n_seeds"],
        n_splits=scale["n_splits"],
        dataset_size=scale["dataset_size"],
    )
    rows = [
        {"phase": "cold (fits everything)", "seconds": result["cold_time"]},
        {"phase": "store replay (fresh session)", "seconds": result["warm_time"]},
        {"phase": "resume (completion records)", "seconds": result["resume_time"]},
    ]
    print()
    print(
        format_table(
            rows,
            columns=["phase", "seconds"],
            title=(
                f"Suite — 3 members, store {result['store_bytes']} bytes "
                f"of {SUITE_STORE_BUDGET} budget"
            ),
        )
    )
    benchmark.extra_info["suite_cold_time"] = result["cold_time"]
    benchmark.extra_info["suite_warm_time"] = result["warm_time"]
    benchmark.extra_info["suite_resume_time"] = result["resume_time"]
    benchmark.extra_info["suite_store_bytes"] = result["store_bytes"]
    benchmark.extra_info["suite_warm_store_stats"] = result["warm_store_stats"]
    record_bench("suite", dict(benchmark.extra_info))

    # All three passes produce bitwise-identical rows for every member.
    assert result["rows"]["warm"] == result["rows"]["cold"]
    assert result["rows"]["resumed"] == result["rows"]["cold"]

    # The cold pass fit measurements; the fresh-session replay served all
    # of them from the per-key store: zero misses, store hits > 0.
    assert result["cold_stats"]["misses"] > 0
    assert result["warm_stats"]["misses"] == 0
    assert result["warm_store_stats"]["store_hits"] > 0

    # Resume replayed every member from its completion record without a
    # single cache lookup.
    assert result["replayed"] == result["names"]
    assert result["resume_stats"].get("misses", 0) == 0
    assert result["resume_stats"].get("hits", 0) == 0

    # The shared store never exceeded its configured byte budget.
    assert 0 < result["store_bytes"] <= SUITE_STORE_BUDGET


# ----------------------------------------------------------------------
# Distributed suite: 1-worker vs 3-worker wall-clock through the queue
# ----------------------------------------------------------------------
def _distributed_members(*, n_seeds, n_splits, dataset_size, random_state):
    return [
        (
            "fig1-variance",
            StudySpec(
                study="variance",
                params={
                    "task_names": ["entailment"],
                    "n_seeds": n_seeds,
                    "include_hpo": False,
                    "dataset_size": dataset_size,
                },
                random_state=random_state,
            ),
        ),
        (
            "fig2-binomial",
            StudySpec(
                study="binomial",
                params={
                    "task_names": ["entailment"],
                    "n_splits": n_splits,
                    "dataset_size": dataset_size,
                },
                random_state=random_state,
            ),
        ),
        (
            "figC1-sample-size",
            StudySpec(
                study="sample_size",
                params={"gammas": [0.7, 0.75, 0.9]},
                random_state=random_state,
            ),
        ),
    ]


def _run_distributed(members, directory, n_workers):
    """Enqueue the suite, drain it with n external worker processes."""
    from repro.sched import Coordinator

    suite = SuiteSpec(
        name="engine-dist", specs=members, cache_dir=directory
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    with Session.for_suite(suite) as session:
        coordinator = Coordinator(session, suite, poll_seconds=0.05)
        # No explicit enqueue: run() enqueues, and the workers poll until
        # the queue appears (--exit-when-done waits for one to exist).
        workers = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    directory,
                    "--exit-when-done",
                    "--timeout",
                    "600",
                ],
                env=env,
                stderr=subprocess.DEVNULL,
            )
            for _ in range(n_workers)
        ]
        try:
            result = coordinator.run(participate=False, timeout=600)
        finally:
            # A worker that never saw the queue before it was destroyed
            # would idle out its whole --timeout; don't wait for that.
            for worker in workers:
                try:
                    worker.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    worker.terminate()
                    worker.wait(timeout=30)
    elapsed = time.perf_counter() - start
    return result, elapsed


def _run_distributed_comparison(
    *, n_seeds, n_splits, dataset_size, random_state=0
):
    members = _distributed_members(
        n_seeds=n_seeds,
        n_splits=n_splits,
        dataset_size=dataset_size,
        random_state=random_state,
    )
    with tempfile.TemporaryDirectory() as reference_dir:
        suite = SuiteSpec(
            name="engine-dist", specs=members, cache_dir=reference_dir
        )
        start = time.perf_counter()
        with Session.for_suite(suite) as session:
            reference = session.run_suite(suite)
        single_time = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as one_dir:
        one_worker, one_time = _run_distributed(members, one_dir, 1)
    with tempfile.TemporaryDirectory() as three_dir:
        three_workers, three_time = _run_distributed(members, three_dir, 3)
    return {
        "single_time": single_time,
        "one_worker_time": one_time,
        "three_worker_time": three_time,
        "rows": {
            "single": _suite_rows(reference),
            "one_worker": _suite_rows(one_worker),
            "three_workers": _suite_rows(three_workers),
        },
    }


def test_suite_distributed(benchmark, scale):
    result = run_once(
        benchmark,
        _run_distributed_comparison,
        n_seeds=scale["n_seeds"],
        n_splits=scale["n_splits"],
        dataset_size=scale["dataset_size"],
    )
    rows = [
        {"phase": "single process (in-session)", "seconds": result["single_time"]},
        {"phase": "queue, 1 worker process", "seconds": result["one_worker_time"]},
        {
            "phase": "queue, 3 worker processes",
            "seconds": result["three_worker_time"],
        },
    ]
    print()
    print(
        format_table(
            rows,
            columns=["phase", "seconds"],
            title="Distributed suite — 3 members over the shared work queue",
        )
    )
    benchmark.extra_info["dist_single_time"] = result["single_time"]
    benchmark.extra_info["dist_fs_one_worker_time"] = result["one_worker_time"]
    benchmark.extra_info["dist_fs_three_worker_time"] = result["three_worker_time"]
    record_bench("distributed", dict(benchmark.extra_info))

    # Scheduling must never influence results: every member's rows are
    # bitwise-identical whether the suite ran in-process, through the
    # queue with one worker, or raced across three.
    assert result["rows"]["one_worker"] == result["rows"]["single"]
    assert result["rows"]["three_workers"] == result["rows"]["single"]


# ----------------------------------------------------------------------
# Report generation: zero re-execution, zero store writes
# ----------------------------------------------------------------------
def _run_report_comparison(*, n_seeds, dataset_size, random_state=0):
    from repro.report import write_suite_reports

    with tempfile.TemporaryDirectory() as directory:
        suite = SuiteSpec(
            name="engine-report",
            cache_dir=directory,
            specs=[
                (
                    "ablation",
                    StudySpec(
                        study="layer_ablation",
                        params={
                            "task_names": ["entailment"],
                            "combos": ["none", "dropout", "order", "all"],
                            "n_seeds": n_seeds,
                            "dataset_size": dataset_size,
                        },
                        random_state=random_state,
                    ),
                ),
            ],
        )
        start = time.perf_counter()
        with Session.for_suite(suite) as session:
            session.run_suite(suite)
        suite_time = time.perf_counter() - start

        store = FileStore(directory)
        entries_before = len(store)
        bytes_before = store.total_bytes

        start = time.perf_counter()
        _, written = write_suite_reports(directory, "engine-report")
        report_time = time.perf_counter() - start
        first_tree = {path: open(path, "rb").read() for path in written}

        start = time.perf_counter()
        write_suite_reports(directory, "engine-report")
        regen_time = time.perf_counter() - start
        second_tree = {path: open(path, "rb").read() for path in written}

        store = FileStore(directory)
        entries_after = len(store)
        bytes_after = store.total_bytes
    return {
        "suite_time": suite_time,
        "report_time": report_time,
        "regen_time": regen_time,
        "report_files": len(written),
        "store_entries_before": entries_before,
        "store_entries_after": entries_after,
        "store_bytes_before": bytes_before,
        "store_bytes_after": bytes_after,
        "trees_identical": first_tree == second_tree,
    }


def test_report_time(benchmark, scale):
    result = run_once(
        benchmark,
        _run_report_comparison,
        n_seeds=scale["n_seeds"],
        dataset_size=scale["dataset_size"],
    )
    rows = [
        {"phase": "suite run (fits + records)", "seconds": result["suite_time"]},
        {"phase": "report generation (records only)", "seconds": result["report_time"]},
        {"phase": "report regeneration", "seconds": result["regen_time"]},
    ]
    print()
    print(
        format_table(
            rows,
            columns=["phase", "seconds"],
            title=f"Report — {result['report_files']} files from cached records",
        )
    )
    recorded = (
        "suite_time",
        "report_time",
        "regen_time",
        "report_files",
        "store_entries_before",
        "store_entries_after",
        "store_bytes_before",
        "store_bytes_after",
    )
    for key in recorded:
        benchmark.extra_info[key] = result[key]
    record_bench("report", {key: result[key] for key in recorded})

    # Reports are a pure function of the completion records: generating
    # them touches no measurement — the object store is byte-for-byte
    # exactly where the suite run left it.
    assert result["store_entries_after"] == result["store_entries_before"]
    assert result["store_bytes_after"] == result["store_bytes_before"]

    # Regeneration from the same cache is byte-identical (the invariant
    # CI's report-smoke job diffs) and reporting costs a tiny fraction of
    # the suite run it summarizes.
    assert result["trees_identical"]
    assert result["report_time"] < result["suite_time"]
