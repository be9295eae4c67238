"""Every repro instrument, declared once.

Call sites import the children they need from here instead of minting
names ad hoc, so the full metric namespace is visible in one file (and
the EXPERIMENTS.md table has a single source of truth).  Declaration is
cheap — instruments with no observations render nothing until touched,
except where a zero is itself informative (e.g. cache hit counters).

Naming follows Prometheus conventions: ``repro_<layer>_<what>_total``
for counters, ``_seconds`` histograms for latencies, bare gauges for
levels.
"""

from __future__ import annotations

from repro.telemetry.metrics import DURATION_BUCKETS, REGISTRY

__all__ = [
    "CACHE_HITS",
    "CACHE_MISSES",
    "CACHE_EVICTIONS",
    "CACHE_STORE_HITS",
    "STORE_ROUND_TRIPS",
    "STORE_BYTES",
    "EXECUTOR_DISPATCH_SECONDS",
    "EXECUTOR_QUEUE_DEPTH",
    "EXECUTOR_ITEMS",
    "RUNNER_BATCH_SECONDS",
    "RUNNER_ITEMS",
    "SCHED_CLAIMS",
    "SCHED_STEALS",
    "SCHED_RETRIES",
    "SCHED_LEASE_RENEWALS",
    "SCHED_BACKOFF_GATED",
    "SCHED_COMMITS",
    "WORKER_EVENTS",
    "HTTP_REQUESTS",
    "HTTP_REQUEST_SECONDS",
    "SSE_STREAMS",
    "SERVE_JOBS",
]

# -- engine -------------------------------------------------------------

CACHE_HITS = REGISTRY.counter(
    "repro_cache_hits", "Measurement cache hits (memory or store)."
)
CACHE_MISSES = REGISTRY.counter(
    "repro_cache_misses", "Measurement cache misses (fit actually runs)."
)
CACHE_EVICTIONS = REGISTRY.counter(
    "repro_cache_evictions", "In-memory LRU entries evicted."
)
CACHE_STORE_HITS = REGISTRY.counter(
    "repro_cache_store_hits", "Misses served from the on-disk object store."
)
STORE_ROUND_TRIPS = REGISTRY.counter(
    "repro_store_round_trips",
    "Object-store operations by direction.",
    labelnames=("op",),  # read | write
)
STORE_BYTES = REGISTRY.counter(
    "repro_store_bytes",
    "Bytes moved through the object store by direction.",
    labelnames=("op",),
)
EXECUTOR_DISPATCH_SECONDS = REGISTRY.histogram(
    "repro_executor_dispatch_seconds",
    "Wall time of one ParallelExecutor.map dispatch.",
    labelnames=("backend",),
    buckets=DURATION_BUCKETS,
)
EXECUTOR_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_executor_queue_depth",
    "Items submitted to an executor and not yet completed.",
    labelnames=("backend",),
)
EXECUTOR_ITEMS = REGISTRY.counter(
    "repro_executor_items",
    "Items completed by ParallelExecutor.map.",
    labelnames=("backend",),
)
RUNNER_BATCH_SECONDS = REGISTRY.histogram(
    "repro_runner_batch_seconds",
    "Wall time of one StudyRunner execute pass over uncached items.",
    buckets=DURATION_BUCKETS,
)
RUNNER_ITEMS = REGISTRY.counter(
    "repro_runner_items",
    "Items resolved by StudyRunner by source.",
    labelnames=("source",),  # cache | fit
)

# -- sched --------------------------------------------------------------

SCHED_CLAIMS = REGISTRY.counter(
    "repro_sched_claims",
    "Task claim attempts by outcome.",
    labelnames=("outcome",),  # won | lost
)
SCHED_STEALS = REGISTRY.counter(
    "repro_sched_steals",
    "Expired-lease tasks stolen.",
)
SCHED_RETRIES = REGISTRY.counter(
    "repro_sched_retries",
    "Failed executions re-enqueued (transient) vs parked (fatal).",
    labelnames=("kind",),  # transient | fatal
)
SCHED_LEASE_RENEWALS = REGISTRY.counter(
    "repro_sched_lease_renewals",
    "Heartbeat outcomes.",
    labelnames=("outcome",),  # renewed | lost
)
SCHED_BACKOFF_GATED = REGISTRY.counter(
    "repro_sched_backoff_gated",
    "Claim attempts refused by a not-before backoff gate.",
)
SCHED_COMMITS = REGISTRY.counter(
    "repro_sched_commits",
    "Commit outcomes (a lost commit means the task was stolen).",
    labelnames=("outcome",),  # committed | lost
)
WORKER_EVENTS = REGISTRY.counter(
    "repro_worker_events",
    "Worker task lifecycle events (claim/steal/commit/retry/...).",
    # No worker label: each process has its own registry, so the scrape
    # target already names the worker.
    labelnames=("event",),
)

# -- serve --------------------------------------------------------------

HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests",
    "Requests by method, route template and status code.",
    labelnames=("method", "route", "status"),
)
HTTP_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_http_request_seconds",
    "Request handling latency by route template.",
    labelnames=("route",),
    buckets=DURATION_BUCKETS,
)
SSE_STREAMS = REGISTRY.gauge(
    "repro_serve_sse_streams", "Event-stream connections currently open."
)
SERVE_JOBS = REGISTRY.gauge(
    "repro_serve_jobs",
    "Jobs currently registered, by state.",
    labelnames=("state",),
)
