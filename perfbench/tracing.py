"""Span recording around the program's public functions, for traced runs.

:func:`install` wraps the calls each layer is timed around (the fit
kernel, resampling, seed derivation, measurements, keying and the
cache/store, the executor, the API's suites, studies and completion
records, the P(A>B) test, and the work queue), so that each call records
one span (name, start, end, parent) into an in-memory :class:`Recorder`.
Nothing is written until the run ends.  The wrappers live in the
benchmark's own files; the program is not changed to be traced.

A span's self time is its duration minus the time its child spans cover.
:func:`layer_metrics` folds the spans of one traced repetition into the
per-layer metrics and a time budget: self seconds per layer, plus the
residual, the run time that no traced call covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Span clock.  CLOCK_MONOTONIC is shared by every process on a Linux
#: host, so a worker's spans line up with its client's timestamps.
clock = time.monotonic

#: Time-budget rows ``(layer, span-name prefixes)``, in table order.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("pipelines (fit kernel)", ("pipelines.",)),
    ("data (resampling)", ("data.",)),
    ("utils.rng (seed derivation)", ("rng.",)),
    ("engine (keys, cache, store)", ("engine.key", "engine.cache.", "engine.store.")),
    ("engine (executor, pools, shm)", ("engine.map", "engine.pool.", "engine.shm.")),
    ("api (suites, studies, records)", ("api.",)),
    ("core (measurements, P(A>B) test)", ("core.", "stats.")),
    ("sched (worker start, queue, tasks)", ("sched.",)),
    ("serve (HTTP)", ("serve.",)),
)
SCHED_LAYER = LAYERS[7][0]
SERVE_LAYER = LAYERS[8][0]


class Recorder:
    """In-memory span log: one ``(name, start, end, parent, tag)`` per call.

    ``parent`` indexes the enclosing span of the same thread (-1 for
    none); ``tag`` is a small note on the call: cache hit, claim won,
    commit or task done (bools), a batch size (int), the worker's final
    counters (dict).  Spans are recorded only while ``enabled`` is true.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Optional[tuple]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def call(self, name, fn, args, kwargs, tag):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # filled in when the call returns
        parent = stack[-1] if stack else -1
        stack.append(index)
        result = None
        start = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = clock()
            stack.pop()
            note = None if tag is None else tag(args, result)
            self.spans[index] = (name, start, end, parent, note)

    def dump(self, path: str, header: Mapping[str, Any]) -> None:
        """Write ``header`` and then every span as JSON lines; a span still
        open is written as ``null``, so parent indices stay valid."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(header)) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path: str):
    """``(header, spans)`` as :meth:`Recorder.dump` wrote them."""
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle if line.strip()]
    return header, spans


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _found(args, result):
    return result is not None


def _truthy(args, result):
    return bool(result)


def _batch(args, result):
    items = args[1] if len(args) > 1 else ()
    return len(items) if hasattr(items, "__len__") else 0


def _worker_counters(args, result):
    return {
        name: int(getattr(result, name, 0))
        for name in ("idle_polls", "retried", "lost")
    }


#: Every call the traced run times, as ``(module, class, attribute, span
#: name, tag)``; a ``None`` class names a module-level function.  Pipeline
#: ``fit``/``fit_many`` and process-pool construction are wrapped apart in
#: :func:`install`.  A target that a later version of the program no
#: longer has is skipped, and the metrics built on it read zero.
TARGETS = (
    ("repro.pipelines.nn.network", "MLPNetwork", "loss_and_gradients",
     "pipelines.loss_and_gradients", None),
    ("repro.pipelines.nn.batched", "BatchedNetwork", "loss_and_gradients",
     "pipelines.loss_and_gradients", None),
    ("repro.pipelines.nn.optimizers", "Optimizer", "step",
     "pipelines.optimizer_step", None),
    ("repro.data.resampling", "BootstrapResampler", "split", "data.split", None),
    ("repro.utils.rng", "SeedScope", "child", "rng.derive", None),
    ("repro.utils.rng", "SeedScope", "bundle", "rng.derive", None),
    ("repro.core.benchmark", "BenchmarkProcess", "measure", "core.measure", None),
    ("repro.core.benchmark", "BenchmarkProcess", "measure_many", "core.measure", None),
    ("repro.core.benchmark", "BenchmarkProcess", "measure_with_hpo",
     "core.measure", None),
    ("repro.core.significance", None, "probability_of_outperforming_test",
     "stats.p_outperform", None),
    ("repro.engine.cache", None, "measurement_key", "engine.key", None),
    ("repro.engine.cache", "MeasurementCache", "get", "engine.cache.get", _found),
    ("repro.engine.cache", "MeasurementCache", "put", "engine.cache.put", None),
    ("repro.engine.cache", "MeasurementCache", "put_many", "engine.cache.put_many", None),
    ("repro.engine.cache", "FileStore", "read", "engine.store.read", None),
    ("repro.engine.cache", "FileStore", "write", "engine.store.write", None),
    ("repro.engine.cache", "FileStore", "write_many", "engine.store.write_many", _batch),
    ("repro.engine.cache", "FileStore", "write_index", "engine.store.index", None),
    ("repro.engine.executor", "ParallelExecutor", "map", "engine.map", None),
    ("repro.engine.shm", "SharedDatasetArena", "publish", "engine.shm.publish", None),
    ("repro.api.session", "Session", "run_suite", "api.suite", None),
    ("repro.api.session", "Session", "_execute", "api.study", None),
    ("repro.api.session", "Session", "_write_suite_record", "api.record", None),
    ("repro.api.session", "Session", "_load_suite_result", "api.resume", _found),
    ("repro.sched.queue", "TaskQueue", "claim", "sched.claim", _found),
    ("repro.sched.queue", "TaskQueue", "commit", "sched.commit", _truthy),
    ("repro.sched.worker", "Worker", "step", "sched.step", _truthy),
    ("repro.sched.worker", "Worker", "run", "sched.run", _worker_counters),
)


def _wrap(recorder, name, fn, tag=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.enabled:
            return recorder.call(name, fn, args, kwargs, tag)
        return fn(*args, **kwargs)

    return wrapper


def _patch_method(recorder, owner, attr, name, tag=None):
    raw = vars(owner)[attr]
    if isinstance(raw, (staticmethod, classmethod)):
        wrapped = type(raw)(_wrap(recorder, name, raw.__func__, tag))
    else:
        wrapped = _wrap(recorder, name, raw, tag)
    setattr(owner, attr, wrapped)


def _patch_function(recorder, function, name, tag=None):
    """Replace ``function`` in every loaded ``repro`` module that holds it.

    Callers import it by name, so patching its home module alone would
    miss them; modules imported later pick the wrapper up from its home.
    """
    wrapped = _wrap(recorder, name, function, tag)
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", None) or ""
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is function:
                setattr(module, key, wrapped)


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_subclasses(sub)]
    return list(dict.fromkeys(found))


def inject_step_delay(seconds: float) -> None:
    """Busy-wait ``seconds`` inside every ``Optimizer.step``: the fit-kernel
    slowdown the sensitivity self-test injects.  Called before
    :func:`install`, the delay lands inside the ``pipelines.optimizer_step``
    spans."""
    from repro.pipelines.nn.optimizers import Optimizer

    step = vars(Optimizer)["step"]

    @functools.wraps(step)
    def slowed(*args, **kwargs):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass
        return step(*args, **kwargs)

    Optimizer.step = slowed


def install(recorder: Recorder) -> None:
    """Wrap every timed call of the program, recording into ``recorder``.

    Processes forked afterwards (pool workers) record nothing; their time
    stays inside the ``engine.map`` span that dispatched them.  Call once
    per process.
    """
    import repro.pipelines  # noqa: F401  (defines every Pipeline subclass)
    from repro.pipelines.base import Pipeline

    for cls in [Pipeline, *_subclasses(Pipeline)]:
        for attr, tag in (("fit", None), ("fit_many", _batch)):
            raw = vars(cls).get(attr)
            if raw is not None and not getattr(raw, "__isabstractmethod__", False):
                _patch_method(recorder, cls, attr, f"pipelines.{attr}", tag)
    for module_name, owner_name, attr, name, tag in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None or attr not in vars(owner):
            continue
        if owner_name is None:
            _patch_function(recorder, vars(owner)[attr], name, tag)
        else:
            _patch_method(recorder, owner, attr, name, tag)
    executor = importlib.import_module("repro.engine.executor")

    class CountedPool(executor.ProcessPoolExecutor):
        """The executor's process pool, its construction traced."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)

    _patch_method(recorder, CountedPool, "__init__", "engine.pool.start")
    executor.ProcessPoolExecutor = CountedPool
    os.register_at_fork(
        after_in_child=functools.partial(setattr, recorder, "enabled", False)
    )


# ----------------------------------------------------------------------
# Folding spans into metrics
# ----------------------------------------------------------------------
@dataclass
class SpanStats:
    """What the spans of one name add up to."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    #: Calls whose bool tag was true, and their summed durations.
    hits: int = 0
    hits_total_s: float = 0.0
    #: Calls not nested in a call of the same name, and their batch sizes.
    outer_calls: int = 0
    outer_items: int = 0
    #: The last dict tag seen (the worker's final counters).
    counters: Optional[Dict[str, int]] = None


def aggregate(spans, window=None) -> Dict[str, SpanStats]:
    """Fold spans into :class:`SpanStats` per span name.

    With ``window=(lo, hi)`` only spans starting inside it count, and
    every duration is clipped to it: the fleet budget stops at the
    worker's last commit, because what the worker does afterwards is off
    the path to the client's result.
    """
    lo, hi = window if window is not None else (float("-inf"), float("inf"))
    durations = [0.0] * len(spans)
    nested = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span is None:
            continue
        _, start, end, parent, _ = span
        durations[index] = max(0.0, min(end, hi) - max(start, lo))
        if parent >= 0 and spans[parent] is not None:
            nested[parent] += durations[index]
    stats: Dict[str, SpanStats] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, start, _, parent, tag = span
        if not lo <= start <= hi:
            continue
        entry = stats.setdefault(name, SpanStats())
        entry.calls += 1
        entry.total_s += durations[index]
        entry.self_s += durations[index] - nested[index]
        if isinstance(tag, bool):
            if tag:
                entry.hits += 1
                entry.hits_total_s += durations[index]
        elif isinstance(tag, dict):
            entry.counters = tag
        if parent < 0 or spans[parent] is None or spans[parent][0] != name:
            entry.outer_calls += 1
            if isinstance(tag, int) and not isinstance(tag, bool):
                entry.outer_items += tag
    return stats


def span_table(stats: Mapping[str, SpanStats]) -> Dict[str, Dict[str, float]]:
    """Calls, self and total seconds per span name (for result records)."""
    return {
        name: {"calls": entry.calls, "self_s": entry.self_s, "total_s": entry.total_s}
        for name, entry in sorted(stats.items())
    }


def layer_metrics(stats, *, run_s, extras=None, path_seconds=None):
    """Per-layer metric values and budget rows of one traced repetition.

    Returns ``(values, budget)``.  ``values`` holds every per-layer metric
    but the two the caller derives across repetitions
    (``trace.overhead_ratio`` and ``error_rate``); ``budget`` lists
    ``(layer, self seconds)`` in :data:`LAYERS` order.  ``extras`` carries
    values measured outside spans (worker start, HTTP latencies, done
    lag), and ``path_seconds`` adds such intervals to their layer's row.
    """
    empty = SpanStats()

    def get(name):
        return stats.get(name, empty)

    def self_s(*names):
        return sum(get(name).self_s for name in names)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    cache, claim = get("engine.cache.get"), get("sched.claim")
    worker = get("sched.run").counters or {}
    values = {
        "pipelines.fit.calls": get("pipelines.fit").calls,
        "pipelines.fit.s": self_s("pipelines.fit"),
        "pipelines.fit_many.calls": get("pipelines.fit_many").outer_calls,
        "pipelines.fit_many.items": get("pipelines.fit_many").outer_items,
        "pipelines.fit_many.s": self_s("pipelines.fit_many"),
        "pipelines.loss_and_gradients.s": self_s("pipelines.loss_and_gradients"),
        "pipelines.optimizer_step.s": self_s("pipelines.optimizer_step"),
        "data.split.calls": get("data.split").calls,
        "data.split.s": self_s("data.split"),
        "rng.derive.calls": get("rng.derive").calls,
        "rng.derive.s": self_s("rng.derive"),
        "engine.key.calls": get("engine.key").calls,
        "engine.key.s": self_s("engine.key"),
        "engine.cache.hits": cache.hits,
        "engine.cache.misses": cache.calls - cache.hits,
        "engine.cache.hit_ratio": ratio(cache.hits, cache.calls),
        "engine.store.reads": get("engine.store.read").calls,
        "engine.store.read_s": self_s("engine.store.read"),
        "engine.store.writes": (
            get("engine.store.write").calls
            + get("engine.store.write_many").outer_items
        ),
        "engine.store.write_s": self_s("engine.store.write", "engine.store.write_many"),
        "engine.store.index_s": self_s("engine.store.index"),
        "engine.map.calls": get("engine.map").calls,
        "engine.map.s": self_s("engine.map"),
        "engine.pool.starts": get("engine.pool.start").calls,
        "engine.shm.publish.s": self_s("engine.shm.publish"),
        "api.study.calls": get("api.study").calls,
        "api.study.s": self_s("api.study"),
        "api.record.writes": get("api.record").calls,
        "api.record.s": self_s("api.record"),
        "api.resume.replayed": get("api.resume").hits,
        "core.measure.calls": get("core.measure").outer_calls,
        "core.measure.s": self_s("core.measure"),
        "stats.p_outperform.calls": get("stats.p_outperform").calls,
        "stats.p_outperform.s": self_s("stats.p_outperform"),
        "sched.worker_import_s": 0.0,
        "sched.worker_ready_s": 0.0,
        "sched.claim.calls": claim.calls,
        "sched.claim.won_ratio": ratio(claim.hits, claim.calls),
        "sched.claim.s": self_s("sched.claim"),
        "sched.commit.calls": get("sched.commit").calls,
        "sched.commit.s": self_s("sched.commit"),
        "sched.task.s": get("sched.step").hits_total_s,
        "sched.idle_polls": worker.get("idle_polls", 0),
        "sched.retries": worker.get("retried", 0),
        "sched.lost": worker.get("lost", 0),
        "sched.done_lag_s": 0.0,
        "serve.requests": 0,
        "serve.errors": 0,
        "serve.submit_ms": 0.0,
        "serve.poll_p50_ms": 0.0,
        "serve.poll_tail_ms": 0.0,
        "serve.result_ms": 0.0,
    }
    values.update(extras or {})
    budget = []
    for layer, prefixes in LAYERS:
        seconds = sum(
            entry.self_s for name, entry in stats.items() if name.startswith(prefixes)
        )
        budget.append((layer, seconds + (path_seconds or {}).get(layer, 0.0)))
    residual = run_s - sum(seconds for _, seconds in budget)
    values["budget.residual_s"] = residual
    values["budget.residual_ratio"] = ratio(residual, run_s)
    return values, budget


def render_budget(budget, *, run_s, overhead_ratio, title) -> str:
    """Markdown time budget, laid out like ``repro report``'s variance
    budget: one row per layer and the residual as a row of its own."""
    residual = run_s - sum(seconds for _, seconds in budget)
    lines = [
        f"### Time budget: {title}",
        "",
        "| layer | self seconds | fraction |",
        "| --- | --- | --- |",
    ]
    for layer, seconds in [*budget, ("residual (unattributed)", residual)]:
        fraction = seconds / run_s if run_s else 0.0
        lines.append(f"| {layer} | {seconds:.6g} | {fraction:.6g} |")
    lines += [
        "",
        f"- total (traced run_s): {run_s:.6g} s",
        f"- trace.overhead_ratio: {overhead_ratio:.6g} "
        "(fastest traced run_s / fastest untraced run_s)",
        "",
        "A large residual is not a bug: it is honest accounting of the run "
        "time that no traced call covers.",
    ]
    return "\n".join(lines)
