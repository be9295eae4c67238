"""Durable work queue for one suite: the plan and its on-disk lifecycle.

A :class:`TaskQueue` owns both halves of a distributed suite's queue.
The *plan* is the immutable task graph (priorities, dependencies, shard
assembly order); claim order, dependency gating, failure propagation
and completion are computed from it.  The *task lifecycle* is plain
files under ``<cache_dir>/queue/<suite>/``: every state transition is
one atomic rename, and a lease is a claim file's mtime.  Zero
infrastructure: any worker that can see the directory can join.

The task lifecycle::

                      claim                    commit
        pending ─────────────────▶ running ─────────────▶ done
           ▲                        │   ▲                (terminal)
           │   fail(transient) &    │   │ steal
           │   attempts < max       │   │ (lease expired)
           └────────────────────────┤   └──── running ──┐
                                    │     (new holder)  │
                 fail(deterministic │                    │
                 or attempts        ▼                    │
                 exhausted)       failed ◀───────────────┘
                                 (terminal, error + attempts recorded)

At-least-once execution is harmless (scope-addressed seeding makes
re-execution bitwise-identical), so the one invariant the queue
enforces is that the *commit* is exactly-once.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.spec import StudySpec, SuiteSpec
from repro.engine.cache import atomic_write, dump_fidelity, load_fidelity
from repro.telemetry.instruments import (
    SCHED_BACKOFF_GATED,
    SCHED_CLAIMS,
    SCHED_COMMITS,
    SCHED_LEASE_RENEWALS,
    SCHED_RETRIES,
    SCHED_STEALS,
)

__all__ = [
    "QueueState",
    "TaskClaim",
    "TaskQueue",
    "TaskRecord",
    "retry_not_before",
]

_PLAN_VERSION = 1

#: Separator between task id and claim token in running/ filenames.  Task
#: ids use the member-name alphabet plus ``@`` (shard suffix), so ``#``
#: can never appear in one.
_CLAIM_SEP = "#"

_STATE_DIRS = ("pending", "running", "done", "failed", "results", "errors")

#: Default executions a task gets before a *transient* failure parks it.
DEFAULT_MAX_ATTEMPTS = 3

#: Retry-backoff policy: first retry ~1-2s after the failure (base 2.0
#: jittered into [delay/2, delay)), doubling per attempt, at most the cap.
#: See :func:`retry_not_before`.
RETRY_BASE_SECONDS = 2.0
RETRY_CAP_SECONDS = 60.0


def retry_not_before(
    task_id: str,
    attempts: int,
    *,
    base: float,
    cap: float,
    now: Optional[float] = None,
) -> float:
    """Earliest wall-clock time a transiently failed task may be
    re-claimed: exponential backoff with deterministic jitter.

    The delay doubles per failed execution (``base * 2**(attempts-1)``,
    capped at ``cap``) and is jittered into ``[delay/2, delay)`` so a
    fleet that hit the same transient fault in lock-step doesn't retry
    in lock-step too and thundering-herd the store.  The jitter is
    *deterministic* — a uniform draw seeded from
    ``sha256("<task_id>:<attempts>")`` — so every replica computes the
    identical timestamp for the same failure (no coin flips to reason
    about) while distinct tasks, and distinct attempts
    of one task, still spread out.

    ``base <= 0`` disables backoff entirely (retried tasks are claimable
    immediately).
    """
    stamp = time.time() if now is None else float(now)
    if base <= 0 or attempts <= 0:
        return stamp
    delay = min(float(cap), float(base) * (2.0 ** (attempts - 1)))
    digest = hashlib.sha256(
        f"{task_id}:{attempts}".encode("utf-8")
    ).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2.0**64
    return stamp + delay * (0.5 + 0.5 * fraction)


@dataclass(frozen=True)
class TaskClaim:
    """Proof of task possession.

    ``token`` is the commit credential; ``path`` is the lease file under
    ``running/``; ``attempts`` counts *failed executions before this
    one* — the claim of a task's first execution carries 0.
    """

    task_id: str
    token: str
    path: str
    attempts: int = 0


@dataclass
class QueueState:
    """One consistent-enough snapshot of every task's lifecycle state.

    ``running`` maps task id to ``(lease name, heartbeat age seconds)``;
    ``pending``/``done``/``failed`` are sets of task ids.  State reads
    race concurrent transitions, so a task can transiently appear in no
    set (mid-rename) — consumers simply rescan
    on the next poll.  ``attempts`` (failed executions so far),
    ``workers`` (running task -> worker id) and ``not_before`` (pending
    task -> absolute retry-backoff gate, only entries still in the
    future) are filled only by ``snapshot(detail=True)`` — the status
    read path — so the hot claim-poll path stays cheap.
    """

    pending: set = field(default_factory=set)
    running: Dict[str, Tuple[str, float]] = field(default_factory=dict)
    done: set = field(default_factory=set)
    failed: set = field(default_factory=set)
    attempts: Dict[str, int] = field(default_factory=dict)
    workers: Dict[str, str] = field(default_factory=dict)
    not_before: Dict[str, float] = field(default_factory=dict)


def _read_json(path: str) -> Dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return {}
    return payload if isinstance(payload, dict) else {}


def _not_before(marker: Dict[str, Any]) -> float:
    """The retry-backoff gate riding in a pending marker (0.0 when absent
    or unreadable: old markers are claimable immediately)."""
    try:
        return float(marker.get("not_before") or 0.0)
    except (TypeError, ValueError):
        return 0.0


def _touch(path: str) -> bool:
    """Refresh a lease file's mtime; ``False`` when it is gone (stolen)."""
    try:
        os.utime(path)
        return True
    except FileNotFoundError:
        return False


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


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

    Guarantees:

    * **claim exclusivity** — of N racing :meth:`claim` calls for one
      task (pending, or running with an expired lease), at most one
      returns a :class:`TaskClaim`;
    * **exactly-once commit** — :meth:`commit` succeeds only for the
      holder of the current claim token, and never twice for one task;
    * **monotonic terminality** — ``done`` and ``failed`` are terminal:
      no operation moves a task out of them short of a rebuilding
      :meth:`create` or :meth:`destroy`.

    ``FileNotFoundError`` is the "queue is gone" signal: plan reads of a
    destroyed queue raise it, and callers handle disappearance there.

    Layout::

        <directory>/suite.json        # the SuiteSpec manifest
        <directory>/plan.json         # immutable task graph
        <directory>/pending/<id>      # marker: task is claimable
        <directory>/running/<id>#<claim>   # lease file; mtime = heartbeat
        <directory>/done/<id>         # marker: result committed
        <directory>/failed/<id>       # marker: task raised
        <directory>/results/<id>.json # result record
        <directory>/results/<id>.raw.pkl  # optional native result pickle
        <directory>/errors/<id>.json  # traceback of a failed task

    Every state transition is a single :func:`os.rename` on one
    filesystem, which POSIX makes atomic; heartbeats are ``os.utime``
    refreshes of the claim file's mtime.  Lease expiry compares that
    mtime against the local clock, so leases shared across hosts must
    exceed the clock skew between them.  The retry counter — and, after
    a backoff-gated retry, the ``not_before`` timestamp — ride inside
    the marker/claim file JSON; a marker without them reads as
    ``attempts == 0`` and immediately claimable.

    Parameters
    ----------
    directory:
        Where the queue's state lives, normally
        ``<cache_dir>/queue/<suite>`` (use :meth:`for_suite`); its
        basename is the suite name.
    lease_seconds:
        Heartbeat lease: a running task whose lease has not been renewed
        for this long is considered abandoned and may be stolen
        (``None``: :attr:`LEASE_SECONDS`).
    max_attempts:
        Executions a task gets before a *transient* failure parks it
        (deterministic failures always park on the first; ``None``:
        :data:`DEFAULT_MAX_ATTEMPTS`).
    """

    #: Lease when the caller names none — the one default for every
    #: queue, worker, coordinator and service.  Use minutes across hosts
    #: with clock skew.
    LEASE_SECONDS = 30.0

    def __init__(
        self,
        directory: str,
        *,
        lease_seconds: Optional[float] = None,
        max_attempts: Optional[int] = None,
    ) -> None:
        if lease_seconds is None:
            lease_seconds = self.LEASE_SECONDS
        if max_attempts is None:
            max_attempts = DEFAULT_MAX_ATTEMPTS
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.directory = str(directory)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self._plan_path = os.path.join(self.directory, "plan.json")
        self._plan: Optional[List[TaskRecord]] = None
        self._plan_stamp: Optional[int] = None

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

    def _path(self, state_dir: str, name: str) -> str:
        return os.path.join(self.directory, state_dir, name)

    def exists(self) -> bool:
        """True when a plan is durably present for this suite."""
        return os.path.exists(self._plan_path)

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

        Every task is marked pending and the manifest stored before the
        plan lands, *last*: a queue does not exist for workers until its
        plan is visible, so a coordinator crash mid-enqueue never leaves
        a claimable half-queue, and the plan's presence guarantees every
        task has exactly one durable state.

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
            with open(self._plan_path, "rb") as handle:
                existing: Optional[bytes] = handle.read()
        except FileNotFoundError:
            existing = None
        if existing == plan_payload and keep_completed:
            self._plan = list(tasks)
            self._plan_stamp = os.stat(self._plan_path).st_mtime_ns
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
            self._reset()
        for state_dir in _STATE_DIRS:
            os.makedirs(os.path.join(self.directory, state_dir), exist_ok=True)
        atomic_write(
            os.path.join(self.directory, "suite.json"),
            suite.to_json(indent=2).encode("utf-8"),
        )
        for task in tasks:
            # The marker content is informational; claimability is the
            # file's existence.
            atomic_write(
                self._path("pending", task.id),
                json.dumps({"task": task.id}).encode("utf-8"),
            )
        atomic_write(self._plan_path, plan_payload)
        self._plan = list(tasks)
        self._plan_stamp = os.stat(self._plan_path).st_mtime_ns

    def _reset(self) -> None:
        """Drop all task state *and* the plan (a rebuild invalidates
        everything)."""
        # Unlink the plan first: the queue stops existing, so workers
        # step aside (their cached plan goes stale) before any old-state
        # marker disappears or new marker lands.
        _unlink(self._plan_path)
        self._plan = None
        for state_dir in _STATE_DIRS:
            try:
                entries = os.scandir(os.path.join(self.directory, state_dir))
            except FileNotFoundError:
                continue
            for entry in entries:
                try:
                    os.unlink(entry.path)
                except (FileNotFoundError, IsADirectoryError):
                    pass

    def destroy(self) -> None:
        """Remove the whole queue.

        Called by the coordinator once a run has been assembled (the
        results were mirrored into the suite's completion records, so the
        queue is spent scratch state) — queues therefore never accumulate
        in the GC-exempt store namespace.  A failed run's queue is kept
        for inspection (error records and attempt counts).
        """
        shutil.rmtree(self.directory, ignore_errors=True)
        self._plan = None
        self._plan_stamp = None

    # ------------------------------------------------------------------
    # Shared: plan and state
    # ------------------------------------------------------------------
    def suite(self) -> SuiteSpec:
        """The enqueued suite manifest (worker-side session config)."""
        with open(
            os.path.join(self.directory, "suite.json"), encoding="utf-8"
        ) as handle:
            return SuiteSpec.from_json(handle.read())

    def plan(self, *, refresh: bool = False) -> List[TaskRecord]:
        """The task graph, cached and keyed to the plan file's mtime.

        A plan is immutable for the lifetime of one enqueue, but a
        coordinator may legitimately *rebuild* an idle queue with a
        changed plan (see :meth:`create`); the stamp check (one ``stat``,
        no parse) lets long-lived workers cache the parsed graph while
        still noticing the swap.  Raises ``FileNotFoundError`` when the
        queue does not exist.
        """
        stamp = os.stat(self._plan_path).st_mtime_ns
        if self._plan is None or refresh or stamp != self._plan_stamp:
            with open(self._plan_path, "rb") as handle:
                payload = json.load(handle)
            self._plan = [
                TaskRecord.from_dict(entry) for entry in payload["tasks"]
            ]
            self._plan_stamp = stamp
        return list(self._plan)

    def snapshot(self, *, detail: bool = False) -> QueueState:
        """Scan the current task states into one :class:`QueueState`.

        ``detail=True`` additionally fills per-task attempt counts,
        running worker ids and pending backoff gates — the status read
        path behind ``python -m repro queue``.
        """
        state = QueueState()
        now = time.time()
        for name in self._list("pending"):
            state.pending.add(name)
            if detail:
                info = _read_json(self._path("pending", name))
                attempts = int(info.get("attempts", 0) or 0)
                if attempts:
                    state.attempts[name] = attempts
                gate = _not_before(info)
                if gate > now:
                    state.not_before[name] = gate
        for name in self._list("running"):
            task_id, _, _token = name.rpartition(_CLAIM_SEP)
            if not task_id:
                continue
            try:
                mtime = os.stat(self._path("running", name)).st_mtime
            except FileNotFoundError:  # raced a rename mid-scan
                continue
            state.running[task_id] = (name, max(0.0, now - mtime))
            if detail:
                info = _read_json(self._path("running", name))
                attempts = int(info.get("attempts", 0) or 0)
                if attempts:
                    state.attempts[task_id] = attempts
                if info.get("worker"):
                    state.workers[task_id] = str(info["worker"])
        for name in self._list("done"):
            state.done.add(name)
            if detail:
                # The done marker is a hard link of the winning claim
                # file, so it still carries the attempts counter.
                info = _read_json(self._path("done", name))
                attempts = int(info.get("attempts", 0) or 0)
                if attempts:
                    state.attempts[name] = attempts
        for name in self._list("failed"):
            state.failed.add(name)
            if detail:
                info = _read_json(self._error_path(name))
                attempts = int(info.get("attempts", 0) or 0)
                if attempts:
                    state.attempts[name] = attempts
        return state

    def _list(self, state_dir: str) -> List[str]:
        try:
            return sorted(os.listdir(os.path.join(self.directory, state_dir)))
        except FileNotFoundError:
            return []

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
                    _unlink(self._path("running", name))
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
        another worker won the race, the task is not claimable, or its
        retry backoff gate has not passed yet."""
        state = state or self.snapshot()
        if task.id in state.running:
            name, age = state.running[task.id]
            if age < self.lease_seconds:
                return None
            # Take the lease observed in the snapshot, so a lease
            # refreshed since then is never stolen by accident.
            stolen = self._take(task.id, self._path("running", name), worker)
            if stolen is not None:
                SCHED_STEALS.inc()
            else:
                SCHED_CLAIMS.labels(outcome="lost").inc()
            return stolen
        marker = self._path("pending", task.id)
        if _not_before(_read_json(marker)) > time.time():
            SCHED_BACKOFF_GATED.inc()  # backing off after a transient failure
            return None
        taken = self._take(task.id, marker, worker)
        SCHED_CLAIMS.labels(outcome="won" if taken is not None else "lost").inc()
        return taken

    def _take(
        self, task_id: str, source: str, worker: str
    ) -> Optional[TaskClaim]:
        """The rename-to-own move behind claim and steal: exactly one of
        any number of racers wins the rename; the losers get
        :class:`FileNotFoundError` and move on."""
        token = uuid.uuid4().hex[:12]
        target = self._path("running", f"{task_id}{_CLAIM_SEP}{token}")
        try:
            os.rename(source, target)
        except FileNotFoundError:
            return None
        # Stamp ownership and refresh the mtime immediately: a rename
        # preserves the source mtime, so a fresh claim of a long-pending
        # task (or a steal) would otherwise look expired until the first
        # heartbeat.  Opened *without* O_CREAT: if the claim was already
        # stolen back, recreating the file here would resurrect a second
        # lease for the same task and break the exactly-once commit.  The
        # read-before-truncate carries the attempts counter across from
        # the pending marker (or the previous holder's claim file).
        try:
            fd = os.open(target, os.O_RDWR)
        except FileNotFoundError:  # pragma: no cover - stolen instantly
            return None
        with os.fdopen(fd, "r+", encoding="utf-8") as handle:
            try:
                attempts = int(json.load(handle).get("attempts", 0) or 0)
            except (json.JSONDecodeError, ValueError, TypeError):
                attempts = 0
            handle.seek(0)
            handle.truncate()
            json.dump(
                {
                    "task": task_id,
                    "worker": worker,
                    "pid": os.getpid(),
                    "attempts": attempts,
                },
                handle,
            )
        return TaskClaim(
            task_id=task_id, token=token, path=target, attempts=attempts
        )

    def heartbeat(self, claim: TaskClaim) -> bool:
        """Refresh the lease.  ``False`` means the task was stolen — the
        worker should abandon the execution and must not commit."""
        renewed = _touch(claim.path)
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
        committed = self._publish(claim, record, raw)
        SCHED_COMMITS.labels(
            outcome="committed" if committed else "lost"
        ).inc()
        return committed

    def _publish(
        self, claim: TaskClaim, record: Mapping[str, Any], raw: Any
    ) -> bool:
        """The commit protocol; the commit point is one link.

        The result record lands first (atomic write), the optional native
        result pickle second, and then ``running/<id>#<claim>`` is
        *linked* to ``done/<id>`` and unlinked.  Only the holder of the
        exact claim filename can make that link, and a link never
        overwrites an existing marker (unlike rename), so of N
        at-least-once executions exactly one commits; the rest observe
        ``False`` and discard.  Writing the record before the commit link
        is safe even for losers: records of the same task are
        bitwise-identical in everything but timing metadata
        (scope-addressed seeding), so the ``done`` marker always
        describes the bytes on disk.
        """
        if not _touch(claim.path):
            return False
        task_id = claim.task_id
        atomic_write(
            self._path("results", f"{task_id}.json"),
            json.dumps(dict(record), sort_keys=True).encode("utf-8"),
        )
        if raw is not None:
            blob = dump_fidelity(record.get("spec"), raw)
            if blob is not None:
                atomic_write(self._raw_path(task_id), blob)
        try:
            os.link(claim.path, self._path("done", task_id))
        except FileNotFoundError:  # stolen: the thief owns the commit now
            return False
        except FileExistsError:
            # Already committed (e.g. a previous holder crashed *between*
            # its commit link and its lease cleanup, and we re-ran the
            # task).  The result is durable; just drop our stale lease.
            _unlink(claim.path)
            return False
        _unlink(claim.path)
        return True

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
        durable not-before gate (:func:`retry_not_before` of the task id
        and new attempt count, under :data:`RETRY_BASE_SECONDS` and
        :data:`RETRY_CAP_SECONDS`) and is refused by :meth:`claim` until
        it passes.  Deterministic failures
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
        try:
            attempts = int(
                _read_json(claim.path).get("attempts", claim.attempts) or 0
            )
        except (TypeError, ValueError):
            attempts = claim.attempts
        attempts += 1
        if transient and attempts < self.max_attempts:
            disposition = "retried" if self._requeue(claim, attempts) else ""
        else:
            disposition = "failed" if self._park(claim, message, attempts) else ""
        if disposition:
            SCHED_RETRIES.labels(
                kind="transient" if disposition == "retried" else "fatal"
            ).inc()
        return disposition

    def _requeue(self, claim: TaskClaim, attempts: int) -> bool:
        """Re-enqueue with the incremented counter and the backoff gate
        riding inside the marker content: rewrite the claim file (no
        ``O_CREAT`` — a stolen claim must not resurrect), then rename it
        back to pending.  A thief racing either step wins cleanly: our
        open or rename fails and the execution reads as lost."""
        marker = {
            "task": claim.task_id,
            "attempts": attempts,
            "not_before": retry_not_before(
                claim.task_id,
                attempts,
                base=RETRY_BASE_SECONDS,
                cap=RETRY_CAP_SECONDS,
            ),
        }
        try:
            fd = os.open(claim.path, os.O_WRONLY | os.O_TRUNC)
        except FileNotFoundError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(marker, handle)
        try:
            os.rename(claim.path, self._path("pending", claim.task_id))
        except FileNotFoundError:
            return False
        return True

    def _park(self, claim: TaskClaim, message: str, attempts: int) -> bool:
        """Move a failed task into ``failed/`` with its error recorded."""
        # The error record lands before the state rename, so a worker
        # killed between the two never leaves a parked task without its
        # reason.  A claim already stolen writes nothing (the write would
        # recreate the directory of a queue destroyed since).  A record
        # from a claim stolen after this check does no harm: it is only
        # read for tasks in failed/, the thief's own park overwrites it,
        # and a rebuild clears it.
        if not os.path.exists(claim.path):
            return False
        atomic_write(
            self._error_path(claim.task_id),
            json.dumps(
                {
                    "task": claim.task_id,
                    "error": message,
                    "attempts": attempts,
                }
            ).encode("utf-8"),
        )
        try:
            os.rename(claim.path, self._path("failed", claim.task_id))
        except FileNotFoundError:
            return False
        return True

    def release(self, claim: TaskClaim) -> bool:
        """Put a claimed task back (graceful worker shutdown mid-queue)."""
        try:
            os.rename(claim.path, self._path("pending", claim.task_id))
            return True
        except FileNotFoundError:
            return False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _raw_path(self, task_id: str) -> str:
        return self._path("results", f"{task_id}.raw.pkl")

    def _error_path(self, task_id: str) -> str:
        return self._path("errors", f"{task_id}.json")

    def load_record(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The committed result record of ``task_id`` (``None`` if absent
        or unreadable)."""
        try:
            with open(
                self._path("results", f"{task_id}.json"), encoding="utf-8"
            ) as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
            return None

    def load_raw(self, task_id: str, spec: StudySpec) -> Any:
        """The native result pickled alongside ``task_id``'s record, when
        present *and* written for exactly ``spec`` (``None`` otherwise)."""
        return load_fidelity(self._raw_path(task_id), spec.to_dict())

    def load_error(self, task_id: str) -> str:
        """The recorded error text of a failed task ('' if absent)."""
        return str(_read_json(self._error_path(task_id)).get("error", ""))
