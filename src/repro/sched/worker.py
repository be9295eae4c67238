"""The claim-execute-commit loop behind ``python -m repro worker``.

A :class:`Worker` polls the queues under one shared ``cache_dir``,
claims the highest-priority runnable task
(dependencies committed, lease free), executes its
:class:`~repro.api.spec.StudySpec` through a
:class:`~repro.api.session.Session` bound to the *same* store — so every
measurement it fits is write-through shared with every other worker —
heartbeats its lease from a background thread while the study runs, and
commits the result record.

Leases recover *process death*: a worker that crashes (or is SIGKILLed,
or whose host disappears) stops heartbeating, its lease expires, and
another worker steals the task.  With ``stall_seconds`` set, leases also
recover *in-process hangs*: the heartbeat thread renews only while the
study's progress events keep flowing, so a wedged study stops renewing
and loses its lease to a healthy worker even though its process is still
alive.  When a worker does lose its lease (a stall, or a long GC pause
that let a thief in), the heartbeat thread notices the stolen claim and
trips the study's cancellation event: the execution aborts at its next
work item on every executor backend (process pools observe the event
through the executor's relayed multiprocessing event), and nothing is
committed.
The thief re-runs the task to bitwise-identical results, so abandonment
costs wall-clock, never correctness.

Failures are classified before they park.  *Transient* errors —
:class:`OSError` (NFS hiccups, disk-full blips), timeouts, a broken
executor pool — re-enqueue the task with its durable ``attempts``
counter incremented, up to the queue's ``max_attempts``; every other
exception is deterministic (it would raise identically on re-run) and
parks the task in ``failed`` immediately, full traceback recorded.
"""

from __future__ import annotations

import concurrent.futures
import os
import socket
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.api.session import Session
from repro.sched.queue import TaskClaim, TaskQueue, TaskRecord
from repro.telemetry.instruments import WORKER_EVENTS
from repro.telemetry.tracing import SpanContext, trace

__all__ = ["Worker", "WorkerStats"]

#: Signature of the optional per-event worker log callback:
#: ``(event, task_id, detail)`` with ``event`` one of ``"claim"``,
#: ``"steal"``, ``"commit"``, ``"lost"``, ``"retry"``, ``"fail"``,
#: ``"release"``.
WorkerLog = Callable[[str, str, str], None]

#: Exception types treated as plausibly environmental: the same task may
#: well succeed on a later attempt (possibly on another worker), so it is
#: re-enqueued with its ``attempts`` counter incremented instead of
#: parking.  ``TimeoutError`` is an :class:`OSError` subclass on modern
#: Pythons, but :mod:`concurrent.futures` kept a distinct class through
#: 3.10; ``BrokenExecutor`` covers a pool whose processes were killed
#: under the study.  Everything else is deterministic: re-running it
#: would raise identically, so it parks with its traceback on the first
#: failure.
TRANSIENT_EXCEPTIONS = (
    OSError,
    TimeoutError,
    concurrent.futures.TimeoutError,
    concurrent.futures.BrokenExecutor,
)


@dataclass
class WorkerStats:
    """Lifetime counters of one worker loop, for logs and tests."""

    claimed: int = 0
    stolen: int = 0
    committed: int = 0
    lost: int = 0
    retried: int = 0
    failed: int = 0
    idle_polls: int = 0
    suites: List[str] = field(default_factory=list)


class Worker:
    """Cooperative suite executor over one shared cache directory.

    Parameters
    ----------
    cache_dir:
        The shared per-key store; queues live under ``<cache_dir>/queue/``.
    suite:
        Restrict to one suite's queue (default: work every queue found).
    worker_id:
        Stable identity for leases and logs (default ``host:pid``).
    lease_seconds, poll_seconds:
        Heartbeat lease for claimed tasks, and how long to sleep when no
        task is claimable (positive: zero would spin on the queue).
    max_attempts:
        Executions a task gets before a transient failure parks it.
    stall_seconds:
        Couple lease renewal to study progress: when the running study
        emits no progress event for this long, the heartbeat thread stops
        renewing and deliberately lets the lease lapse, so a hung task is
        stolen by a healthy worker.  ``None`` (default) renews
        unconditionally — the right choice for studies whose longest
        single work item can exceed any reasonable threshold.
    n_jobs, backend, batch_size:
        Per-task *engine* overrides (``backend`` is the executor
        backend — serial/thread/process; ``batch_size`` groups
        compatible measurements into vectorized multi-seed fits); default
        to each suite's own manifest configuration.
    log:
        Optional ``(event, task_id, detail)`` callback for streaming logs.
    session:
        Execute through this existing :class:`~repro.api.session.Session`
        instead of building one per suite — how a participating
        coordinator keeps its own cache (and cache statistics) on the
        execution path.  The caller keeps ownership: :meth:`close` leaves
        an injected session open.
    """

    def __init__(
        self,
        cache_dir: str,
        *,
        suite: Optional[str] = None,
        worker_id: Optional[str] = None,
        lease_seconds: float = 30.0,
        poll_seconds: float = 0.5,
        max_attempts: Optional[int] = None,
        stall_seconds: Optional[float] = None,
        n_jobs: Optional[int] = None,
        backend: Optional[str] = None,
        batch_size: Optional[int] = None,
        log: Optional[WorkerLog] = None,
        session: Optional[Session] = None,
    ) -> None:
        self.cache_dir = str(cache_dir)
        self.suite = suite
        self.worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}"
        self.lease_seconds = float(lease_seconds)
        if poll_seconds <= 0:
            raise ValueError("poll_seconds must be positive")
        self.poll_seconds = float(poll_seconds)
        self.max_attempts = max_attempts
        if stall_seconds is not None and stall_seconds <= 0:
            raise ValueError("stall_seconds must be positive (or None)")
        self.stall_seconds = stall_seconds
        self.n_jobs = n_jobs
        self.backend = backend
        if batch_size is not None and int(batch_size) < 1:
            raise ValueError("batch_size must be a positive integer (or None)")
        self.batch_size = batch_size
        self.log = log
        self.stats = WorkerStats()
        self._sessions: Dict[str, Session] = {}
        self._queues: Dict[str, TaskQueue] = {}
        self._injected_session = session
        # Shard affinity: the suite member this worker last *committed*,
        # per queue — passed to claimable() so sibling shards of a member
        # keep landing on the worker whose caches that member warmed.
        self._last_member: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def queues(self) -> List[TaskQueue]:
        """The queues this worker serves (rescanned every poll, so suites
        enqueued after the worker started are picked up).

        Instances are cached per directory: the parsed plan then survives
        across polls (``TaskQueue.plan`` re-reads only when the plan
        stamp changes), so a standing fleet doesn't
        re-parse every task spec on every idle scan.
        """
        kwargs: Dict[str, Any] = {"lease_seconds": self.lease_seconds}
        if self.max_attempts is not None:
            kwargs["max_attempts"] = self.max_attempts
        found = TaskQueue.discover(self.cache_dir, **kwargs)
        if self.suite is not None:
            found = [
                queue for queue in found if queue.suite_name == self.suite
            ]
        return [self._remember(queue) for queue in found]

    def _remember(self, queue: TaskQueue) -> TaskQueue:
        return self._queues.setdefault(queue.directory, queue)

    def _forget(self, queue: TaskQueue) -> None:
        """Drop a vanished queue entirely (instance cache and session)."""
        self._queues.pop(queue.directory, None)
        self._last_member.pop(queue.directory, None)
        self._release_session(queue)

    def _release_session(self, queue: TaskQueue) -> None:
        """Close a queue's per-suite session, freeing its in-memory
        measurement cache — a standing fleet worker must not hold one
        cache per suite it ever served.  The cached :class:`TaskQueue`
        (and its parsed plan) may stay: a complete-but-not-yet-destroyed
        queue is still polled, and re-parsing its plan each poll is
        exactly what the instance cache avoids."""
        session = self._sessions.pop(queue.suite_name, None)
        if session is not None:
            session.close()

    def _session_for(self, queue: TaskQueue) -> Session:
        if self._injected_session is not None:
            return self._injected_session
        name = queue.suite_name
        if name not in self._sessions:
            overrides: Dict[str, Any] = {"cache_dir": self.cache_dir}
            if self.n_jobs is not None:
                overrides["n_jobs"] = self.n_jobs
            if self.backend is not None:
                overrides["backend"] = self.backend
            if self.batch_size is not None:
                overrides["batch_size"] = self.batch_size
            # The manifest's own cache_dir is the *coordinator's* path to
            # the store; this worker reaches the same directory through
            # its own mount point, so the local path always wins.
            self._sessions[name] = Session.for_suite(queue.suite(), **overrides)
        return self._sessions[name]

    def close(self) -> None:
        """Close every session this worker built, shutting down their
        executors' process pools.

        An injected session stays open — its owner closes it."""
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _emit(self, event: str, task_id: str, detail: str = "") -> None:
        WORKER_EVENTS.labels(event=event).inc()
        if self.log is not None:
            self.log(event, task_id, detail)

    def step(self) -> bool:
        """Claim and execute at most one task across all served queues.

        Returns ``True`` when a task was executed (committed, lost,
        retried or failed), ``False`` when nothing was claimable anywhere
        — the caller decides whether to sleep, exit, or do other work.
        """
        for queue in self.queues():
            try:
                state = queue.snapshot()
                candidates = queue.claimable(
                    state, prefer_member=self._last_member.get(queue.directory)
                )
            except FileNotFoundError:
                # The queue vanished between discovery and use (assembled
                # and destroyed, or deleted by an operator); forget it.
                self._forget(queue)
                continue
            for task in candidates:
                stealing = task.id in state.running
                claim = queue.claim(task, worker=self.worker_id, state=state)
                if claim is None:
                    continue  # lost the race; try the next candidate
                if stealing:
                    self.stats.stolen += 1
                    self._emit("steal", task.id, "lease expired")
                self.stats.claimed += 1
                if queue.suite_name not in self.stats.suites:
                    self.stats.suites.append(queue.suite_name)
                self._emit("claim", task.id, task.spec.study)
                self._execute(queue, task, claim)
                return True
        return False

    def _execute(
        self, queue: TaskQueue, task: TaskRecord, claim: TaskClaim
    ) -> None:
        session = self._session_for(queue)
        cancel = threading.Event()
        lost = threading.Event()
        stop_heartbeat = threading.Event()
        # Monotonic timestamp of the study's last progress event, shared
        # with the heartbeat thread.  A one-element list, not a lock: the
        # single float store is atomic, and the tick must stay cheap.
        last_tick = [time.monotonic()]

        def _tick() -> None:
            last_tick[0] = time.monotonic()

        def _heartbeat() -> None:
            interval = max(0.05, self.lease_seconds / 4.0)
            while not stop_heartbeat.wait(interval):
                if (
                    self.stall_seconds is not None
                    and time.monotonic() - last_tick[0] >= self.stall_seconds
                ):
                    # The study has stopped making progress.  Skip the
                    # renewal — deliberately, so the lease lapses and a
                    # healthy worker steals the task.  If progress ever
                    # resumes, the next renewal attempt discovers whether
                    # the claim survived; if it did not, the execution is
                    # cancelled and nothing is committed.
                    continue
                if not queue.heartbeat(claim):
                    # Stolen: stop the study at its next cancellation
                    # point and make sure we never commit.
                    lost.set()
                    cancel.set()
                    return

        heartbeat = threading.Thread(
            target=_heartbeat, name=f"repro-heartbeat-{task.id}", daemon=True
        )
        heartbeat.start()
        # The task span grafts onto the coordinator's trace (the context
        # rides the durable task record), so a distributed suite's spans
        # stitch into one tree no matter which host runs which task.
        with trace.span(
            f"task/{task.id}",
            parent=SpanContext.from_dict(task.trace),
            suite=queue.suite_name,
            member=task.member,
            task=task.id,
            worker=self.worker_id,
            attempt=claim.attempts + 1,
        ) as span:
            try:
                result = session.run(task.spec, cancel_event=cancel, tick=_tick)
            except (KeyboardInterrupt, SystemExit):
                # Being stopped is transient, not a property of the task:
                # requeue it for the rest of the fleet instead of parking it
                # in failed/ (which is terminal and would doom dependents).
                stop_heartbeat.set()
                heartbeat.join()
                queue.release(claim)
                self._emit("release", task.id, "worker interrupted")
                span.set_attr("disposition", "released")
                raise
            except BaseException as error:  # noqa: BLE001 - park, don't crash
                stop_heartbeat.set()
                heartbeat.join()
                span.status = "error"
                span.set_attr("error", type(error).__name__)
                if lost.is_set():
                    self.stats.lost += 1
                    self._emit("lost", task.id, "lease stolen mid-run")
                    span.set_attr("disposition", "lost")
                    return
                message = "".join(
                    traceback.format_exception_only(type(error), error)
                ).strip()
                transient = isinstance(error, TRANSIENT_EXCEPTIONS)
                disposition = queue.fail(
                    claim,
                    f"{message}\n{traceback.format_exc()}",
                    transient=transient,
                )
                if disposition == "retried":
                    self.stats.retried += 1
                    self._emit(
                        "retry", task.id, f"transient, attempt {claim.attempts + 1}"
                    )
                elif disposition == "failed":
                    self.stats.failed += 1
                    self._emit("fail", task.id, message)
                else:
                    # The claim was stolen before the heartbeat noticed: the
                    # thief owns the task (and may commit it fine) — this
                    # execution was lost, not failed.
                    self.stats.lost += 1
                    self._emit("lost", task.id, "lease stolen mid-run")
                    disposition = "lost"
                span.set_attr("disposition", disposition)
                return
            stop_heartbeat.set()
            heartbeat.join()
            if lost.is_set():
                self.stats.lost += 1
                self._emit("lost", task.id, "lease stolen mid-run")
                span.status = "error"
                span.set_attr("disposition", "lost")
                return
            if queue.commit(claim, result.to_record(), raw=result.raw):
                self.stats.committed += 1
                # Remember the member for shard affinity: the next claim scan
                # prefers this member's remaining shards.
                self._last_member[queue.directory] = task.member
                self._emit(
                    "commit", task.id, f"{result.elapsed_seconds:.2f}s"
                )
                span.set_attr("disposition", "committed")
            else:
                self.stats.lost += 1
                self._emit("lost", task.id, "commit lost to a thief")
                span.status = "error"
                span.set_attr("disposition", "lost")

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        exit_when_done: bool = False,
        max_tasks: Optional[int] = None,
        timeout: Optional[float] = None,
        stop: Optional[threading.Event] = None,
    ) -> WorkerStats:
        """Serve queues until told to stop.

        ``exit_when_done`` returns once at least one queue has been
        observed and nothing is left to serve — every current queue is
        complete, or all observed queues are gone (a coordinator destroys
        its queue after assembling the run).  Without it the worker polls
        forever — the long-lived fleet mode, picking up suites as
        coordinators enqueue them.  ``max_tasks`` bounds executed tasks,
        ``timeout`` bounds wall-clock, and ``stop`` is an external kill
        switch; whichever trips first wins.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        executed = 0
        seen_any = False
        try:
            while True:
                if stop is not None and stop.is_set():
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    break
                if max_tasks is not None and executed >= max_tasks:
                    break
                if self.step():
                    executed += 1
                    seen_any = True
                    continue
                queues = self.queues()
                seen_any = seen_any or bool(queues)
                finished = 0
                for queue in queues:
                    try:
                        done = queue.complete()
                    except FileNotFoundError:
                        self._forget(queue)  # assembled and destroyed
                        finished += 1
                        continue
                    if done:
                        # Nothing more to claim there: release the
                        # per-suite session (but keep the queue's plan
                        # cache — the queue is still being polled).
                        self._release_session(queue)
                        finished += 1
                if exit_when_done and seen_any and finished == len(queues):
                    break
                self.stats.idle_polls += 1
                wait = self.poll_seconds
                if deadline is not None:
                    wait = min(wait, max(0.0, deadline - time.monotonic()))
                if stop is not None:
                    stop.wait(wait)
                else:
                    time.sleep(wait)
        finally:
            self.close()
        return self.stats
