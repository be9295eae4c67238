"""The durable task-lifecycle store behind every distributed queue.

:class:`~repro.sched.queue.TaskQueue` owns everything that is a pure
function of the *plan* — dependency gating, priority order, shard
affinity (a worker's ``prefer_member`` hint reorders claim candidates,
see :meth:`~repro.sched.queue.TaskQueue.claimable`), failure
propagation, shard assembly — and delegates everything that must be
*durable and atomic* to a :class:`FilesystemBackend`:

* ``create_plan`` / ``reset`` / ``destroy`` — the enqueue lifecycle;
* ``claim`` / ``steal_expired`` — take a pending task, or one whose
  lease expired (exactly one of any number of racers wins);
* ``heartbeat`` — keep a lease alive (``False`` means the task was
  stolen and the holder must abandon the execution);
* ``commit`` — durably publish a result exactly once, gated on the
  claim token;
* ``fail`` — record a failed execution: transient failures re-enqueue
  with an incremented ``attempts`` counter until ``max_attempts`` —
  gated behind a persisted *not-before* timestamp (exponential backoff
  with deterministic jitter, see :func:`retry_not_before`) so a fleet
  retrying the same fault doesn't thundering-herd the store —
  deterministic ones park immediately;
* ``release`` — put a claimed task back (graceful shutdown);
* ``snapshot`` — one consistent-enough view of every task's state.

The store is plain files under ``<cache_dir>/queue/<suite>/``: every
state transition is one atomic rename, and a lease is a claim file's
mtime.  At-least-once execution is safe because results are a pure
function of the spec (scope-addressed seeding); the store's one hard
job is making the *commit* unique.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import atomic_write

__all__ = [
    "FilesystemBackend",
    "QueueState",
    "TaskClaim",
    "retry_not_before",
]

#: Separator between task id and claim token in running/ filenames.  Task
#: ids use the member-name alphabet plus ``@`` (shard suffix), so ``#``
#: can never appear in one.
_CLAIM_SEP = "#"


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

    ``base <= 0`` disables backoff entirely (the pre-backoff contract:
    retried tasks are claimable immediately).
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


class FilesystemBackend:
    """Atomic-rename claims and mtime-heartbeat leases in one directory.

    Guarantees:

    * **claim exclusivity** — of N racing :meth:`claim` (or
      :meth:`steal_expired`) calls for one task, at most one returns a
      :class:`TaskClaim`;
    * **exactly-once commit** — :meth:`commit` succeeds only for the
      holder of the current claim token, and never twice for one task;
    * **monotonic terminality** — ``done`` and ``failed`` are terminal:
      no operation moves a task out of them short of :meth:`reset` /
      :meth:`destroy`.

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
    exceed the clock skew between them.

    The retry counter — and, after a backoff-gated retry, the
    ``not_before`` timestamp — ride inside the marker/claim file JSON; a
    marker without them reads as ``attempts == 0`` and immediately
    claimable.
    """

    _STATE_DIRS = ("pending", "running", "done", "failed", "results", "errors")

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)

    # -- paths ----------------------------------------------------------
    def _dir(self, state: str) -> str:
        return os.path.join(self.directory, state)

    def _marker(self, state: str, task_id: str) -> str:
        return os.path.join(self.directory, state, task_id)

    def _plan_path(self) -> str:
        return os.path.join(self.directory, "plan.json")

    def result_path(self, task_id: str) -> str:
        return os.path.join(self.directory, "results", f"{task_id}.json")

    def raw_path(self, task_id: str) -> str:
        return os.path.join(self.directory, "results", f"{task_id}.raw.pkl")

    def error_path(self, task_id: str) -> str:
        return os.path.join(self.directory, "errors", f"{task_id}.json")

    def errors_where(self) -> str:
        """Where an operator finds full failure tracebacks."""
        return os.path.join(self.directory, "errors")

    # -- enqueue lifecycle ---------------------------------------------
    def exists(self) -> bool:
        """True when a plan is durably present for this suite."""
        return os.path.exists(self._plan_path())

    def read_plan(self) -> bytes:
        """The raw plan payload; raises ``FileNotFoundError`` if absent."""
        with open(self._plan_path(), "rb") as handle:
            return handle.read()

    def plan_stamp(self) -> Any:
        """Cheap change token of the current plan (no payload parse);
        raises ``FileNotFoundError`` when the queue does not exist."""
        return os.stat(self._plan_path()).st_mtime_ns

    def read_suite(self) -> str:
        with open(
            os.path.join(self.directory, "suite.json"), encoding="utf-8"
        ) as handle:
            return handle.read()

    def create_plan(
        self, suite_json: bytes, plan_payload: bytes, task_ids: Sequence[str]
    ) -> None:
        """Durably enqueue: every task pending, manifest stored, plan
        landing *last* (the queue does not exist for workers until the
        plan is visible, so a crash mid-enqueue never leaves a claimable
        half-queue)."""
        os.makedirs(self.directory, exist_ok=True)
        for state_dir in self._STATE_DIRS:
            os.makedirs(self._dir(state_dir), exist_ok=True)
        atomic_write(os.path.join(self.directory, "suite.json"), suite_json)
        for task_id in task_ids:
            # The marker content is informational; claimability is the
            # file's existence.
            atomic_write(
                self._marker("pending", task_id),
                json.dumps({"task": task_id}).encode("utf-8"),
            )
        atomic_write(self._plan_path(), plan_payload)

    def reset(self) -> None:
        """Drop all task state *and* the plan (a rebuild invalidates
        everything)."""
        # Unlink the plan first: the queue stops existing, so workers
        # step aside (their cached plan goes stale) before any old-state
        # marker disappears or new marker lands.
        self._unlink(self._plan_path())
        for state_dir in self._STATE_DIRS:
            try:
                entries = os.scandir(self._dir(state_dir))
            except FileNotFoundError:
                continue
            for entry in entries:
                try:
                    os.unlink(entry.path)
                except (FileNotFoundError, IsADirectoryError):
                    pass

    def destroy(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- task lifecycle -------------------------------------------------
    def snapshot(self, *, detail: bool = False) -> QueueState:
        """Scan the current task states into one :class:`QueueState`."""
        state = QueueState()
        now = time.time()
        for name in self._list("pending"):
            state.pending.add(name)
            if detail:
                info = self._read_json(self._marker("pending", name))
                attempts = int(info.get("attempts", 0) or 0)
                if attempts:
                    state.attempts[name] = attempts
                try:
                    gate = float(info.get("not_before") or 0.0)
                except (TypeError, ValueError):
                    gate = 0.0
                if gate > now:
                    state.not_before[name] = gate
        for name in self._list("running"):
            task_id, _, _token = name.rpartition(_CLAIM_SEP)
            if not task_id:
                continue
            try:
                mtime = os.stat(self._marker("running", name)).st_mtime
            except FileNotFoundError:  # raced a rename mid-scan
                continue
            state.running[task_id] = (name, max(0.0, now - mtime))
            if detail:
                info = self._read_json(self._marker("running", name))
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
                info = self._read_json(self._marker("done", name))
                attempts = int(info.get("attempts", 0) or 0)
                if attempts:
                    state.attempts[name] = attempts
        for name in self._list("failed"):
            state.failed.add(name)
            if detail:
                info = self._read_json(self.error_path(name))
                attempts = int(info.get("attempts", 0) or 0)
                if attempts:
                    state.attempts[name] = attempts
        return state

    def _list(self, state_dir: str) -> List[str]:
        try:
            return sorted(os.listdir(self._dir(state_dir)))
        except FileNotFoundError:
            return []

    @staticmethod
    def _read_json(path: str) -> Dict[str, Any]:
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return {}
        return payload if isinstance(payload, dict) else {}

    def claim(self, task_id: str, *, worker: str = "") -> Optional[TaskClaim]:
        """Atomically take a *pending* task; ``None`` when another worker
        won the race, the task is not pending, or its retry backoff
        gate has not passed yet."""
        marker = self._marker("pending", task_id)
        if self._marker_not_before(marker) > time.time():
            return None  # backing off after a transient failure
        return self._take(task_id, marker, worker=worker)

    @classmethod
    def _marker_not_before(cls, marker_path: str) -> float:
        """The retry-backoff gate riding in a pending marker (0.0 when
        absent or unreadable — old markers are claimable immediately)."""
        value = cls._read_json(marker_path).get("not_before")
        try:
            return float(value) if value is not None else 0.0
        except (TypeError, ValueError):
            return 0.0

    def steal_expired(
        self, task_id: str, lease_name: str, *, worker: str = ""
    ) -> Optional[TaskClaim]:
        """Atomically take over a *running* task whose lease expired;
        ``lease_name`` is the running entry observed in the snapshot (so
        a lease refreshed since the snapshot is never stolen by
        accident).  ``None`` when another stealer won."""
        return self._take(
            task_id, self._marker("running", lease_name), worker=worker
        )

    def _take(
        self, task_id: str, source: str, *, worker: str
    ) -> Optional[TaskClaim]:
        """The shared rename-to-own move behind claim and steal: exactly
        one of any number of racers wins the rename; the losers get
        :class:`FileNotFoundError` and move on."""
        token = uuid.uuid4().hex[:12]
        target = self._marker("running", f"{task_id}{_CLAIM_SEP}{token}")
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
        worker must abandon the execution and must not commit."""
        try:
            os.utime(claim.path)
            return True
        except FileNotFoundError:
            return False

    def commit(
        self, claim: TaskClaim, record: bytes, raw: Optional[bytes]
    ) -> bool:
        """Durably publish a task result; the commit point is one rename.

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
        if not self.heartbeat(claim):
            return False
        atomic_write(self.result_path(claim.task_id), record)
        if raw is not None:
            atomic_write(self.raw_path(claim.task_id), raw)
        try:
            os.link(claim.path, self._marker("done", claim.task_id))
        except FileNotFoundError:  # stolen: the thief owns the commit now
            return False
        except FileExistsError:
            # Already committed (e.g. a previous holder crashed *between*
            # its commit link and its lease cleanup, and we re-ran the
            # task).  The result is durable; just drop our stale lease.
            self._unlink(claim.path)
            return False
        self._unlink(claim.path)
        return True

    def fail(
        self,
        claim: TaskClaim,
        message: str,
        *,
        transient: bool = False,
        max_attempts: int = 1,
        retry_base_seconds: float = 0.0,
        retry_cap_seconds: float = 60.0,
    ) -> str:
        """Record a failed execution.

        Returns ``"retried"`` (transient, attempts left: the task is
        pending again with ``attempts`` incremented), ``"failed"``
        (parked with its error durably recorded), or ``""`` (the claim
        was stolen first — the thief owns the task's fate, and this
        execution was lost, not failed).

        With ``retry_base_seconds > 0`` a retried task carries a
        durable not-before timestamp — :func:`retry_not_before` of the
        task id and new attempt count — and :meth:`claim` refuses it
        until that gate passes (``0`` keeps the immediate-retry
        contract).
        """
        attempts = self._claim_attempts(claim) + 1
        if transient and attempts < max_attempts:
            # Re-enqueue with the incremented counter (and the backoff
            # gate) riding inside the marker content: rewrite the claim
            # file (no O_CREAT — a stolen claim must not resurrect),
            # then rename it back to pending.  A thief racing either
            # step wins cleanly: our open or rename fails and the
            # execution reads as lost.
            marker: Dict[str, Any] = {
                "task": claim.task_id,
                "attempts": attempts,
            }
            if retry_base_seconds > 0:
                marker["not_before"] = retry_not_before(
                    claim.task_id,
                    attempts,
                    base=retry_base_seconds,
                    cap=retry_cap_seconds,
                )
            try:
                fd = os.open(claim.path, os.O_WRONLY | os.O_TRUNC)
            except FileNotFoundError:
                return ""
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(marker, handle)
            try:
                os.rename(
                    claim.path, self._marker("pending", claim.task_id)
                )
            except FileNotFoundError:
                return ""
            return "retried"
        # Park.  The error record lands before the state rename, so a
        # worker killed between the two never leaves a parked task
        # without its reason.  A claim already stolen writes nothing (the
        # write would recreate the directory of a queue destroyed since).
        # A record from a claim stolen after this check does no harm: it
        # is only read for tasks in failed/, the thief's own park
        # overwrites it, and reset clears it.
        if not os.path.exists(claim.path):
            return ""
        atomic_write(
            self.error_path(claim.task_id),
            json.dumps(
                {
                    "task": claim.task_id,
                    "error": message,
                    "attempts": attempts,
                }
            ).encode("utf-8"),
        )
        try:
            os.rename(claim.path, self._marker("failed", claim.task_id))
        except FileNotFoundError:
            return ""
        return "failed"

    def _claim_attempts(self, claim: TaskClaim) -> int:
        info = self._read_json(claim.path)
        try:
            return int(info.get("attempts", claim.attempts) or 0)
        except (TypeError, ValueError):
            return claim.attempts

    def release(self, claim: TaskClaim) -> bool:
        """Put a claimed task back to pending (graceful shutdown)."""
        try:
            os.rename(claim.path, self._marker("pending", claim.task_id))
            return True
        except FileNotFoundError:
            return False

    def sweep_stale_lease(self, lease_name: str) -> None:
        """Drop a lease left behind by a worker that crashed between its
        commit link and its lease cleanup."""
        self._unlink(self._marker("running", lease_name))

    @staticmethod
    def _unlink(path: str) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    # -- results --------------------------------------------------------
    def load_record(self, task_id: str) -> Optional[bytes]:
        """The committed result record bytes (``None`` if absent)."""
        try:
            with open(self.result_path(task_id), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def load_raw(self, task_id: str) -> Optional[bytes]:
        """The native-result fidelity pickle bytes (``None`` if absent)."""
        try:
            with open(self.raw_path(task_id), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def load_error(self, task_id: str) -> str:
        """The recorded error text of a failed task ('' if absent)."""
        return str(self._read_json(self.error_path(task_id)).get("error", ""))
