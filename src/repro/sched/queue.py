"""Durable work queue for one suite: plan logic over the filesystem store.

A :class:`TaskQueue` pairs the *plan* — the immutable task graph with its
priorities, dependencies, and shard assembly order — with a
:class:`~repro.sched.backend.FilesystemBackend` that makes the task
lifecycle durable and race-free: atomic-rename claims and
mtime-heartbeat leases under ``<cache_dir>/queue/<suite>/``.  Zero
infrastructure: any worker that can see the directory can join.
Everything graph-shaped (claim order, dependency gating, failure
propagation, completion) lives here; everything that must be atomic
(claims, leases, commits, retries) is the store's contract.

The task lifecycle::

                      claim                    commit
        pending ─────────────────▶ running ─────────────▶ done
           ▲                        │   ▲                (terminal)
           │   fail(transient) &    │   │ steal_expired
           │   attempts < max       │   │ (lease expired)
           └────────────────────────┤   └──── running ──┐
                                    │     (new holder)  │
                 fail(deterministic │                    │
                 or attempts        ▼                    │
                 exhausted)       failed ◀───────────────┘
                                 (terminal, error + attempts recorded)

At-least-once execution is harmless (scope-addressed seeding makes
re-execution bitwise-identical), so the one invariant the store
enforces is that the *commit* is exactly-once.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.spec import StudySpec, SuiteSpec
from repro.engine.cache import dump_fidelity, load_fidelity_bytes
from repro.telemetry.instruments import (
    SCHED_BACKOFF_GATED,
    SCHED_CLAIMS,
    SCHED_COMMITS,
    SCHED_LEASE_RENEWALS,
    SCHED_RETRIES,
    SCHED_STEALS,
)
from repro.sched.backend import FilesystemBackend, QueueState, TaskClaim

__all__ = [
    "QueueState",
    "TaskClaim",
    "TaskQueue",
    "TaskRecord",
]

_PLAN_VERSION = 1

#: Default executions a task gets before a *transient* failure parks it.
DEFAULT_MAX_ATTEMPTS = 3

#: Default retry-backoff policy: first retry ~1-2s after the failure
#: (base 2.0 jittered into [delay/2, delay)), doubling per attempt, at
#: most ``cap`` seconds.  ``retry_base_seconds=0`` restores immediate
#: retries.  See :func:`repro.sched.backend.retry_not_before`.
DEFAULT_RETRY_BASE_SECONDS = 2.0
DEFAULT_RETRY_CAP_SECONDS = 60.0

from dataclasses import dataclass


@dataclass(frozen=True)
class TaskRecord:
    """One immutable unit of queue work: a member study (or one shard of it).

    Attributes
    ----------
    id:
        Queue-unique, filesystem-safe identity.  Equal to the member name
        for whole-member tasks; ``<member>@<k>`` for the ``k``-th shard of
        a pre-sharded member.
    member:
        The suite member this task belongs to.
    spec:
        The exact :class:`~repro.api.spec.StudySpec` to execute (already
        narrowed to one shard value when sharded).
    priority:
        Claim-order weight (higher first), from the suite's ``priorities``.
    depends_on:
        *Member* names that must be fully committed before this task may
        be claimed (every task of a sharded dependency must be done).
    shard_key:
        Scope-path shard identity (``task_names=sentiment``) for
        provenance; ``None`` for whole-member tasks.
    index:
        Position in the plan — the deterministic tie-break for claim order
        and the assembly order of a member's shards.
    trace:
        Telemetry propagation: the coordinator's trace context
        (``{"trace_id": ..., "span_id": ...}``) every worker parents its
        ``task/<id>`` span under, carried through the durable plan so a
        distributed suite yields one coherent trace tree.  Derived
        deterministically from the suite name
        (:func:`repro.telemetry.suite_trace_context`), so re-enqueueing
        the same suite produces byte-identical plans and the resume-join
        equality check still holds.  ``None`` (pre-telemetry plans) is
        tolerated everywhere.
    """

    id: str
    member: str
    spec: StudySpec
    priority: int = 0
    depends_on: Tuple[str, ...] = ()
    shard_key: Optional[str] = None
    index: int = 0
    trace: Optional[Dict[str, str]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "id": self.id,
            "member": self.member,
            "spec": self.spec.to_dict(),
            "priority": self.priority,
            "depends_on": list(self.depends_on),
            "shard_key": self.shard_key,
            "index": self.index,
        }
        if self.trace is not None:
            payload["trace"] = dict(self.trace)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskRecord":
        return cls(
            id=data["id"],
            member=data["member"],
            spec=StudySpec.from_dict(data["spec"]),
            priority=int(data.get("priority", 0)),
            depends_on=tuple(data.get("depends_on") or ()),
            shard_key=data.get("shard_key"),
            index=int(data.get("index", 0)),
            trace=data.get("trace"),
        )


class TaskQueue:
    """Work queue for one suite (see the module docstring).

    Parameters
    ----------
    directory:
        Where the queue's state lives, normally
        ``<cache_dir>/queue/<suite>`` (use :meth:`for_suite`); its
        basename is the suite name.
    lease_seconds:
        Heartbeat lease: a running task whose lease has not been renewed
        for this long is considered abandoned and may be stolen.
    max_attempts:
        Executions a task gets before a *transient* failure parks it
        (deterministic failures always park on the first).
    retry_base_seconds, retry_cap_seconds:
        Retry-backoff policy for transient failures: the ``n``-th retry
        becomes claimable only after an exponentially growing,
        deterministically jittered delay (see
        :func:`repro.sched.backend.retry_not_before`), so a fleet
        retrying the same fault doesn't thundering-herd the store.
        ``retry_base_seconds=0`` disables the gate (immediate retry —
        the pre-backoff contract).
    """

    def __init__(
        self,
        directory: str,
        *,
        lease_seconds: float = 30.0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry_base_seconds: float = DEFAULT_RETRY_BASE_SECONDS,
        retry_cap_seconds: float = DEFAULT_RETRY_CAP_SECONDS,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if retry_base_seconds < 0 or retry_cap_seconds < 0:
            raise ValueError("retry backoff seconds must be non-negative")
        self.directory = str(directory)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.retry_base_seconds = float(retry_base_seconds)
        self.retry_cap_seconds = float(retry_cap_seconds)
        self.backend = FilesystemBackend(self.directory)
        self._plan: Optional[List[TaskRecord]] = None
        self._plan_stamp: Optional[Any] = None

    @property
    def suite_name(self) -> str:
        return os.path.basename(self.directory)

    @classmethod
    def for_suite(
        cls, cache_dir: str, suite_name: str, **kwargs: Any
    ) -> "TaskQueue":
        """The queue of ``suite_name`` inside a shared ``cache_dir``.

        Its state lives under ``<cache_dir>/queue/<suite>/``, which is
        invisible to store GC (GC only ever touches the ``objects`` tree).
        """
        return cls(os.path.join(str(cache_dir), "queue", suite_name), **kwargs)

    @classmethod
    def discover(cls, cache_dir: str, **kwargs: Any) -> List["TaskQueue"]:
        """Every queue currently present under ``cache_dir``."""
        root = os.path.join(str(cache_dir), "queue")
        try:
            names = sorted(
                entry.name for entry in os.scandir(root) if entry.is_dir()
            )
        except FileNotFoundError:
            names = []
        queues = [cls.for_suite(cache_dir, name, **kwargs) for name in names]
        return [queue for queue in queues if queue.exists()]

    def exists(self) -> bool:
        return self.backend.exists()

    # ------------------------------------------------------------------
    # Coordinator side: enqueue
    # ------------------------------------------------------------------
    def create(
        self,
        suite: SuiteSpec,
        tasks: Sequence[TaskRecord],
        *,
        keep_completed: bool = False,
    ) -> None:
        """Durably enqueue ``tasks``.

        The store's ``create_plan`` guarantees the correctness story:
        a queue does not exist for workers until its plan lands, so a
        coordinator crash mid-enqueue never leaves a claimable
        half-queue, and the plan's presence guarantees every task has
        exactly one durable state.

        ``keep_completed=True`` (the resume path) makes an identical
        re-enqueue a no-op — committed tasks stay committed, workers
        mid-flight are untouched, and no task state is ever re-written
        for a task a worker might hold (the stale-snapshot resurrection
        race is structurally gone because nothing is written at all).
        Without it, re-enqueueing matches the in-process no-resume
        contract: the queue state is wiped and every task runs again
        (measurements still replay from the shared store).  Either way, a
        queue another execution is actively working (live leases) is
        never rebuilt — pass ``keep_completed=True`` / ``--resume`` to
        join it instead.
        """
        plan_payload = json.dumps(
            {
                "version": _PLAN_VERSION,
                # The full manifest (not just the name): a changed session
                # config (n_jobs, budgets) must read as a changed plan.
                "suite": suite.to_dict(),
                "tasks": [task.to_dict() for task in tasks],
            },
            sort_keys=True,
        ).encode("utf-8")
        try:
            existing: Optional[bytes] = self.backend.read_plan()
        except FileNotFoundError:
            existing = None
        if existing == plan_payload and keep_completed:
            self._plan = list(tasks)
            self._plan_stamp = self.backend.plan_stamp()
            return
        if existing is not None:
            state = self.snapshot()
            live = [
                task_id
                for task_id, (_, age) in state.running.items()
                if age < self.lease_seconds
            ]
            if live:
                raise RuntimeError(
                    f"queue {self.directory!r} tasks {sorted(live)} are "
                    f"still leased by active workers; resume to join the "
                    f"running execution, or wait for the leases to expire"
                )
            self.backend.reset()
            self._plan = None
        self.backend.create_plan(
            suite.to_json(indent=2).encode("utf-8"),
            plan_payload,
            [task.id for task in tasks],
        )
        self._plan = list(tasks)
        self._plan_stamp = self.backend.plan_stamp()

    def destroy(self) -> None:
        """Remove the whole queue.

        Called by the coordinator once a run has been assembled (the
        results were mirrored into the suite's completion records, so the
        queue is spent scratch state) — queues therefore never accumulate
        in the GC-exempt store namespace.  A failed run's queue is kept
        for inspection (error records and attempt counts).
        """
        self.backend.destroy()
        self._plan = None
        self._plan_stamp = None

    # ------------------------------------------------------------------
    # Shared: plan and state
    # ------------------------------------------------------------------
    def suite(self) -> SuiteSpec:
        """The enqueued suite manifest (worker-side session config)."""
        return SuiteSpec.from_json(self.backend.read_suite())

    def plan(self, *, refresh: bool = False) -> List[TaskRecord]:
        """The task graph, cached and keyed to the store's plan stamp.

        A plan is immutable for the lifetime of one enqueue, but a
        coordinator may legitimately *rebuild* an idle queue with a
        changed plan (see :meth:`create`); the stamp check (one ``stat``,
        no parse) lets long-lived workers cache the parsed graph while
        still noticing the swap.
        """
        stamp = self.backend.plan_stamp()
        if self._plan is None or refresh or stamp != self._plan_stamp:
            payload = json.loads(self.backend.read_plan())
            self._plan = [
                TaskRecord.from_dict(entry) for entry in payload["tasks"]
            ]
            self._plan_stamp = stamp
        return list(self._plan)

    def snapshot(self, *, detail: bool = False) -> QueueState:
        """The store's current view of every task's lifecycle state.

        ``detail=True`` additionally fills per-task attempt counts and
        running worker ids — the status read path behind
        ``python -m repro queue``.
        """
        return self.backend.snapshot(detail=detail)

    def _blocked_by_failure(self, state: QueueState) -> set:
        """Task ids that can never run: a (transitive) dependency failed."""
        plan = self.plan()
        failed_members = {
            task.member for task in plan if task.id in state.failed
        }
        member_deps = {}
        for task in plan:
            member_deps.setdefault(task.member, set()).update(task.depends_on)
        # Propagate failure through the member dependency graph to a fixed
        # point (the graph is tiny: one node per suite member).
        doomed = set(failed_members)
        changed = True
        while changed:
            changed = False
            for member, deps in member_deps.items():
                if member not in doomed and deps & doomed:
                    doomed.add(member)
                    changed = True
        return {
            task.id
            for task in plan
            if task.member in doomed and task.id not in state.failed
        }

    def complete(self, state: Optional[QueueState] = None) -> bool:
        """True when every task is done, failed, or unrunnable because a
        dependency failed — i.e. no further execution is possible."""
        state = state or self.snapshot()
        terminal = state.done | state.failed | self._blocked_by_failure(state)
        return all(task.id in terminal for task in self.plan())

    def status(self) -> Dict[str, Any]:
        """One structured status report — the read path behind
        ``python -m repro queue`` (and the future service's endpoint)."""
        state = self.snapshot(detail=True)
        plan = self.plan()
        now = time.time()
        backoff = {
            task_id: round(max(0.0, gate - now), 3)
            for task_id, gate in sorted(state.not_before.items())
        }
        leases = [
            {
                "task": task_id,
                "age_seconds": round(age, 3),
                "expired": age >= self.lease_seconds,
                "worker": state.workers.get(task_id, ""),
                "attempts": state.attempts.get(task_id, 0),
            }
            for task_id, (_, age) in sorted(state.running.items())
        ]
        failed = [
            {
                "task": task_id,
                "attempts": state.attempts.get(task_id, 0),
                "error": (self.load_error(task_id).splitlines() or [""])[0],
            }
            for task_id in sorted(state.failed)
        ]
        return {
            "suite": self.suite_name,
            "location": self.directory,
            "lease_seconds": self.lease_seconds,
            "tasks": len(plan),
            "pending": len(state.pending),
            "running": len(state.running),
            "done": len(state.done),
            "failed": len(state.failed),
            "blocked": len(self._blocked_by_failure(state)),
            "complete": self.complete(state),
            "leases": leases,
            "attempts": {
                task_id: count
                for task_id, count in sorted(state.attempts.items())
                if count
            },
            # Pending tasks still inside their retry-backoff window, and
            # how many seconds remain before each becomes claimable.
            "backoff": backoff,
            "failed_tasks": failed,
        }

    # ------------------------------------------------------------------
    # Worker side: claim / heartbeat / commit
    # ------------------------------------------------------------------
    def claimable(
        self,
        state: Optional[QueueState] = None,
        *,
        prefer_member: Optional[str] = None,
    ) -> List[TaskRecord]:
        """Tasks a worker may try to claim right now, in claim order.

        A task is claimable when it is not terminal, every member it
        depends on is fully committed, and it is either ``pending`` or
        ``running`` with an expired lease (a steal).  Order is priority
        descending, then plan position — the same policy as
        :meth:`repro.api.spec.SuiteSpec.schedule_order`.

        ``prefer_member`` is the shard-affinity hint: within a priority
        tier, tasks of that suite member sort ahead of the rest (plan
        position still breaks ties inside each group).  Workers pass the
        member they last committed, so a pre-sharded member's sibling
        shards stay on the worker whose session cache (and warmed
        datasets) already served that member — purely an ordering
        preference, never a reservation: any worker may still claim any
        task, and with no hint the order is exactly priority/position.
        """
        state = state or self.snapshot()
        plan = self.plan()
        done_members: Dict[str, bool] = {}
        for task in plan:
            done_members.setdefault(task.member, True)
            if task.id not in state.done:
                done_members[task.member] = False
        # Tasks doomed by a failure (a sibling shard of their member, or a
        # transitive dependency, failed) are terminal for the run — their
        # results could never be assembled, so executing them would only
        # burn compute.
        doomed = self._blocked_by_failure(state)
        candidates = []
        for task in plan:
            if task.id in doomed:
                continue
            if task.id in state.done or task.id in state.failed:
                if task.id in state.running:
                    # Stale lease left by a worker that crashed between
                    # its commit link and its cleanup unlink; harmless,
                    # sweep it so snapshots stay small.
                    name, _ = state.running[task.id]
                    self.backend.sweep_stale_lease(name)
                continue
            if task.id in state.running:
                _, age = state.running[task.id]
                if age < self.lease_seconds:
                    continue  # live lease — not stealable yet
            elif task.id not in state.pending:
                continue  # mid-transition; next poll will see it settled
            if not all(done_members.get(dep, False) for dep in task.depends_on):
                continue
            candidates.append(task)
        candidates.sort(
            key=lambda task: (
                -task.priority,
                0 if task.member == prefer_member else 1,
                task.index,
            )
        )
        return candidates

    def claim(
        self,
        task: TaskRecord,
        *,
        worker: str = "",
        state: Optional[QueueState] = None,
    ) -> Optional[TaskClaim]:
        """Try to take ``task``: an atomic pending-claim, or — when its
        observed lease has expired — a steal.  Returns ``None`` when
        another worker won the race."""
        state = state or self.snapshot()
        if task.id in state.running:
            name, age = state.running[task.id]
            if age < self.lease_seconds:
                return None
            stolen = self.backend.steal_expired(task.id, name, worker=worker)
            if stolen is not None:
                SCHED_STEALS.inc()
            else:
                SCHED_CLAIMS.labels(outcome="lost").inc()
            return stolen
        gated = state.not_before.get(task.id, 0.0) > time.time()
        taken = self.backend.claim(task.id, worker=worker)
        if taken is not None:
            SCHED_CLAIMS.labels(outcome="won").inc()
        elif gated:
            SCHED_BACKOFF_GATED.inc()
        else:
            SCHED_CLAIMS.labels(outcome="lost").inc()
        return taken

    def heartbeat(self, claim: TaskClaim) -> bool:
        """Refresh the lease.  ``False`` means the task was stolen — the
        worker should abandon the execution and must not commit."""
        renewed = self.backend.heartbeat(claim)
        SCHED_LEASE_RENEWALS.labels(
            outcome="renewed" if renewed else "lost"
        ).inc()
        return renewed

    def commit(
        self,
        claim: TaskClaim,
        record: Mapping[str, Any],
        *,
        raw: Any = None,
    ) -> bool:
        """Durably publish a task result exactly once.

        The JSON record is authoritative; the optional native result
        pickle rides along best-effort (an unpicklable result degrades to
        the record).  Of N at-least-once executions exactly one observes
        ``True``; the rest discard.
        """
        record_bytes = json.dumps(dict(record), sort_keys=True).encode("utf-8")
        raw_bytes = None
        if raw is not None:
            raw_bytes = dump_fidelity(record.get("spec"), raw)
        committed = self.backend.commit(claim, record_bytes, raw_bytes)
        SCHED_COMMITS.labels(
            outcome="committed" if committed else "lost"
        ).inc()
        return committed

    def fail(
        self,
        claim: TaskClaim,
        message: str,
        *,
        transient: bool = False,
    ) -> str:
        """Record a failed execution; returns the disposition.

        ``transient=True`` marks the failure as plausibly environmental
        (OSError, executor timeout, broken pool): the task re-enqueues
        with its ``attempts`` counter incremented until ``max_attempts``
        executions are spent, then parks.  A re-enqueued task carries a
        durable not-before gate per this queue's
        ``retry_base_seconds``/``retry_cap_seconds`` backoff policy and
        is refused by :meth:`claim` until it passes.
        Deterministic failures
        (``transient=False`` — the default, matching the pre-retry
        contract) park immediately: re-running them would raise
        identically, so they wait in ``failed`` for the coordinator to
        report instead of bouncing between workers forever.

        Returns ``"retried"`` (re-enqueued), ``"failed"`` (parked with
        its error and attempt count durably recorded), or ``""`` — the
        claim was stolen first, so the thief owns the task's fate and
        this execution was lost, not failed.  Both non-empty dispositions
        are truthy; crash recovery remains the lease's job.
        """
        disposition = self.backend.fail(
            claim,
            message,
            transient=transient,
            max_attempts=self.max_attempts,
            retry_base_seconds=self.retry_base_seconds,
            retry_cap_seconds=self.retry_cap_seconds,
        )
        if disposition:
            SCHED_RETRIES.labels(
                kind="transient" if disposition == "retried" else "fatal"
            ).inc()
        return disposition

    def release(self, claim: TaskClaim) -> bool:
        """Put a claimed task back (graceful worker shutdown mid-queue)."""
        return self.backend.release(claim)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def load_record(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The committed result record of ``task_id`` (``None`` if absent)."""
        blob = self.backend.load_record(task_id)
        if blob is None:
            return None
        try:
            return json.loads(blob.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None

    def load_raw(self, task_id: str, spec: StudySpec) -> Any:
        """The native result pickled alongside ``task_id``'s record, when
        present *and* written for exactly ``spec`` (``None`` otherwise)."""
        blob = self.backend.load_raw(task_id)
        if blob is None:
            return None
        return load_fidelity_bytes(blob, spec.to_dict())

    def load_error(self, task_id: str) -> str:
        return self.backend.load_error(task_id)
