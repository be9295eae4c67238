"""Distributed work-queue scheduler over the shared per-key store.

The paper's prescription — re-run every benchmark many times and account
for every variance source — makes figure regeneration embarrassingly
parallel but wall-clock-expensive.  This package turns the single-process
suite runner into a multi-worker (and multi-host) system:

* :mod:`repro.sched.queue` — :class:`TaskQueue`, the queue of one suite:
  the plan (dependency gating, priority order, failure propagation) and
  the durable task lifecycle (claim, heartbeat, commit, fail with
  bounded retries, steal-on-expiry) as atomic-rename claims and
  mtime-heartbeat leases under ``<cache_dir>/queue/<suite>/`` — zero
  infrastructure, so a stale worker can never double-commit and a
  transient failure re-enqueues instead of parking forever;
* :mod:`repro.sched.worker` — :class:`Worker`, the claim-execute-commit
  loop behind ``python -m repro worker <cache_dir>``, with lease renewal
  coupled to study progress so a hung task loses its lease;
* :mod:`repro.sched.coordinator` — :class:`Coordinator`, which enqueues a
  :class:`~repro.api.spec.SuiteSpec` (optionally pre-sharded by scope
  path for fine-grained stealing), streams progress, and assembles the
  same bitwise-identical :class:`~repro.api.results.SuiteResult` as the
  in-process :meth:`~repro.api.session.Session.run_suite` — the one way
  into the queue, behind ``repro suite --distributed`` and the study
  service's suite jobs.

At-least-once execution is safe here because every study derives its
seeds from scope paths: re-running a stolen task produces bitwise-
identical rows, so the only thing the queue must make unique is the
*commit* — the claim token gates it.
"""

from repro.sched.coordinator import Coordinator
from repro.sched.queue import QueueState, TaskClaim, TaskQueue, TaskRecord
from repro.sched.worker import Worker, WorkerStats

__all__ = [
    "Coordinator",
    "QueueState",
    "TaskClaim",
    "TaskQueue",
    "TaskRecord",
    "Worker",
    "WorkerStats",
]
