"""Job lifecycle behind the study service: submit, track, stream.

A :class:`JobRegistry` turns HTTP submissions into running work on one
shared :class:`~repro.api.session.Session`, each job on its own driver
thread:

* **studies** run through :meth:`Session.run`, the one way to run a
  study, once the job holds one of :data:`STUDY_SLOTS` slots shared by
  the whole registry (it waits ``queued`` until then); the study's
  measurements fan out over the session's executor, and the job records
  one ``start``/``done`` event pair named by the study;
* **suites** go through a :class:`~repro.sched.coordinator.Coordinator`
  this registry builds itself, the one way into the work queue — durable
  :class:`~repro.sched.queue.TaskQueue` tasks that any external
  ``python -m repro worker <cache_dir>`` drains, with the coordinator
  (by default) participating so zero workers still complete — and the
  per-member :data:`~repro.api.session.SuiteProgress` events recorded on
  the job.

Every measurement either kind of job computes lands in the session's
own store: a suite's ``cache_dir`` is replaced by the service's, and a
spec's ``cache`` is a bool (join the shared cache or skip it), so no
client chooses a path the service writes to or later unpickles from.

Every :class:`Job` carries an append-only, sequence-numbered event log
guarded by a condition variable: the server-sent-events endpoint replays
the log from any sequence number and then blocks for live events, so a
client that reconnects mid-run never misses or duplicates an event.
Results are kept on the job (and, for suites, mirrored into the shared
store's completion records by the coordinator), so ``/v1/jobs/<id>`` and
``/v1/jobs/<id>/result`` are pure reads.

Spec validation happens synchronously in :meth:`submit_study` /
:meth:`submit_suite` — a malformed payload raises ``ValueError`` /
``TypeError`` / ``KeyError`` with the registry's positional message (the
HTTP layer maps those to 400) and no job is created.  Execution errors
after validation mark the job ``failed`` with the error recorded.
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.registry import get_study
from repro.api.session import Session
from repro.api.spec import StudySpec, SuiteSpec
from repro.engine.executor import StudyCancelled
from repro.sched import Coordinator

__all__ = ["Job", "JobRegistry"]

#: Job lifecycle states.  A study job is ``queued`` until it holds a
#: study slot, a suite job only until its driver thread starts; terminal
#: states are exactly ``done`` / ``failed`` / ``cancelled``.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Study jobs that run at once across the registry; the rest wait
#: ``queued``.  Each study still fans its measurements out over the
#: session's executor.  Suites are not bounded here: they go through the
#: work queue.
STUDY_SLOTS = 2

TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class Job:
    """One submitted study or suite: state, progress counters, event log.

    All mutation happens under ``self.cond`` (a condition over one lock);
    every append/state change notifies waiters, which is what unblocks
    the SSE long-poll in :meth:`wait_events`.
    """

    def __init__(self, job_id: str, kind: str, name: str) -> None:
        self.id = job_id
        self.kind = kind  # "study" | "suite"
        self.name = name
        self.state = "queued"
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.total: Optional[int] = None
        self.completed = 0
        self.error = ""
        self.traceback = ""  # full driver-side traceback once failed
        self.attempts: Dict[str, int] = {}  # task id -> failed executions
        self.events: List[Dict[str, Any]] = []
        self.result: Any = None  # StudyResult | SuiteResult once done
        self.cond = threading.Condition()
        # Set by cancel(); a study job's Session.run stops on it at the
        # next batch boundary.
        self.cancel_event = threading.Event()

    # -- mutation (driver-thread side) ---------------------------------
    def record(
        self,
        event: str,
        name: str,
        index: int,
        total: int,
        result: Any,
    ) -> None:
        """Append one progress event (the SuiteProgress contract)."""
        entry: Dict[str, Any] = {
            "event": event,
            "name": name,
            "index": index,
            "total": total,
        }
        if result is not None:
            entry["elapsed_seconds"] = result.elapsed_seconds
            entry["replayed"] = bool(result.replayed)
        self._append(entry, progressed=event in ("done", "replay"))

    def mark_running(self) -> bool:
        """Move ``queued`` to ``running``; ``False`` when the job was
        cancelled first, so it must not run."""
        with self.cond:
            if self.state != "queued" or self.cancel_event.is_set():
                return False
            self.state = "running"
            self.started = time.time()
            self.cond.notify_all()
            return True

    def finish(
        self,
        state: str,
        result: Any = None,
        error: str = "",
        traceback_text: str = "",
    ) -> None:
        """Move to a terminal state exactly once and emit the ``end``
        event (the SSE stream's close signal)."""
        with self.cond:
            if self.state in TERMINAL_STATES:
                return
            self.state = state
            self.result = result
            self.error = error
            self.traceback = traceback_text
            self.finished = time.time()
        entry: Dict[str, Any] = {"event": "end", "state": state}
        if error:
            entry["error"] = error
        if traceback_text:
            entry["traceback"] = traceback_text
        if self.attempts:
            entry["attempts"] = dict(self.attempts)
        self._append(entry)

    def record_task_error(
        self, task_id: str, attempts: int, traceback_text: str
    ) -> None:
        """Append one failed task's full worker-side traceback and its
        durable attempt count (harvested from the queue's error files)."""
        self._append(
            {
                "event": "task_error",
                "task": task_id,
                "attempts": attempts,
                "traceback": traceback_text,
            }
        )

    def _append(self, entry: Dict[str, Any], *, progressed: bool = False) -> None:
        with self.cond:
            entry["seq"] = len(self.events)
            entry["time"] = time.time()
            self.events.append(entry)
            if progressed:
                self.completed += 1
            self.cond.notify_all()

    # -- reads (HTTP side) ---------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait_events(
        self, after_seq: int, timeout: Optional[float] = None
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Events with ``seq >= after_seq``, blocking up to ``timeout``
        for at least one when none exist yet.

        Returns ``(events, terminal)``; an empty list with
        ``terminal=False`` means the wait timed out (the SSE loop sends a
        keepalive and waits again).  Replay and live delivery are the
        same read, so reconnecting clients resume loss-free from any
        sequence number.
        """
        with self.cond:
            if after_seq >= len(self.events) and not self.terminal:
                self.cond.wait(timeout)
            return list(self.events[after_seq:]), self.terminal

    def cancel(self) -> bool:
        """Request cancellation: a queued job ends ``cancelled`` at once
        and never runs, a running study stops at its next batch boundary
        (best-effort for suites: workers finish their in-flight tasks).
        Returns ``True`` when the job was still live."""
        with self.cond:
            if self.terminal:
                return False
            self.cancel_event.set()
            if self.state == "queued":
                self.finish("cancelled")
        return True

    def to_dict(self) -> Dict[str, Any]:
        """Status summary (no rows — ``/result`` serves the payload)."""
        with self.cond:
            return {
                "id": self.id,
                "kind": self.kind,
                "name": self.name,
                "state": self.state,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "total": self.total,
                "completed": self.completed,
                "events": len(self.events),
                "error": self.error,
                "traceback": self.traceback,
                "attempts": dict(self.attempts),
            }


class JobRegistry:
    """Submission front door shared by every HTTP handler thread.

    Parameters
    ----------
    session:
        The one shared :class:`~repro.api.session.Session`; must be bound
        to a ``cache_dir`` (suites enqueue into it, and every client's
        results live in its store).
    shard_members, lease_seconds, max_attempts, stall_seconds:
        Scheduler configuration applied to every suite job (see
        :class:`~repro.sched.coordinator.Coordinator`; ``None`` keeps its
        default).
    participate:
        Whether suite-driving coordinator threads execute tasks
        themselves (default) or only watch for external workers.
    """

    def __init__(
        self,
        session: Session,
        *,
        shard_members: bool = False,
        participate: bool = True,
        lease_seconds: Optional[float] = None,
        max_attempts: Optional[int] = None,
        stall_seconds: Optional[float] = None,
    ) -> None:
        if session.cache.cache_dir is None:
            raise ValueError(
                "the study service shares results through the per-key store "
                "and therefore requires a session bound to a cache_dir"
            )
        self.session = session
        self.shard_members = bool(shard_members)
        self.participate = bool(participate)
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.stall_seconds = stall_seconds
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._lock = threading.Lock()
        self._study_slots = threading.BoundedSemaphore(STUDY_SLOTS)
        self._ids = itertools.count(1)
        self._closing = False

    @property
    def cache_dir(self) -> str:
        return self.session.cache.cache_dir

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _register(self, kind: str, name: str) -> Job:
        with self._lock:
            if self._closing:
                raise RuntimeError("the service is shutting down")
            job = Job(f"{kind}-{next(self._ids)}", kind, name)
            self._jobs[job.id] = job
        return job

    def submit_study(self, payload: Mapping[str, Any]) -> Job:
        """Validate ``payload`` as a :class:`StudySpec` and run it through
        :meth:`Session.run` once a study slot is free.

        Validation errors raise synchronously (no job is created); the
        job streams one ``start``/``done`` event pair named by the study
        and finishes with its result.  A job cancelled while it waits for
        a slot never runs.
        """
        if not isinstance(payload, Mapping):
            raise TypeError("a study submission must be a JSON object")
        spec = StudySpec.from_dict(payload)
        # Validated here, in the HTTP thread, so a bad spec is a 400 —
        # not a failed job.
        get_study(spec.study).validate_params(spec.params)
        job = self._register("study", spec.study)
        with job.cond:
            job.total = 1

        def execute():
            with self._study_slots:
                if not job.mark_running():
                    raise StudyCancelled("cancelled while queued")
                job.record("start", spec.study, 0, 1, None)
                result = self.session.run(spec, cancel_event=job.cancel_event)
                job.record("done", spec.study, 0, 1, result)
                return result

        self._drive(job, execute)
        return job

    def submit_suite(self, payload: Mapping[str, Any]) -> Job:
        """Validate ``payload`` as a :class:`SuiteSpec` and enqueue it
        through the distributed work queue.

        The manifest's ``cache_dir`` is *forced* to the service's own —
        every client shares one store and one queue home, and a client
        cannot point the service at an arbitrary path (member specs name
        none either: their ``cache`` is a bool).  The coordinator
        thread streams the standard per-member progress events; external
        ``repro worker`` processes attached to the cache dir drain the
        queue (the coordinator participates too unless the service was
        started watch-only).
        """
        if not isinstance(payload, Mapping):
            raise TypeError("a suite submission must be a JSON object")
        suite = SuiteSpec.from_dict(payload).replace(cache_dir=self.cache_dir)
        suite.validate()  # positional errors ("suite spec 'x': ...") -> 400
        job = self._register("suite", suite.name)
        with job.cond:
            job.total = len(suite)

        def progress(event, name, index, total, result):
            job.record(event, name, index, total, result)

        def execute():
            coordinator = self._coordinator(suite)
            try:
                return coordinator.run(
                    participate=self.participate, progress=progress
                )
            except BaseException:
                # A failed run keeps its queue for inspection; pull the
                # per-task attempt counts and full worker tracebacks into
                # the event log before surfacing the error.
                self._harvest_queue_failure(job, coordinator)
                raise

        job.mark_running()
        self._drive(job, execute)
        return job

    def _coordinator(self, suite: SuiteSpec) -> Coordinator:
        """The :class:`~repro.sched.coordinator.Coordinator` that drives
        one suite job, configured from this registry."""
        return Coordinator(
            self.session,
            suite,
            shard_members=self.shard_members,
            lease_seconds=self.lease_seconds,
            max_attempts=self.max_attempts,
            stall_seconds=self.stall_seconds,
        )

    @staticmethod
    def _harvest_queue_failure(job: Job, coordinator) -> None:
        """Copy a failed suite run's durable diagnostics onto the job:
        the queue's per-task attempt counters and every failed task's
        full worker-side traceback (the coordinator's own error message
        only carries first lines)."""
        try:
            state = coordinator.queue.snapshot(detail=True)
        except (OSError, ValueError):
            return  # queue already destroyed (e.g. sibling finished it)
        with job.cond:
            job.attempts = {
                task_id: int(count)
                for task_id, count in sorted(state.attempts.items())
            }
        for task_id in sorted(state.failed):
            try:
                text = coordinator.queue.load_error(task_id) or ""
            except OSError:
                text = ""
            if text:
                job.record_task_error(
                    task_id, state.attempts.get(task_id, 0) or 1, text
                )

    def _drive(self, job: Job, execute) -> None:
        """Run ``execute`` on a daemon driver thread and settle the job."""

        def run() -> None:
            try:
                result = execute()
            except StudyCancelled:
                job.finish("cancelled")
            except BaseException as error:  # noqa: BLE001 - job, not server
                message = "".join(
                    traceback.format_exception_only(type(error), error)
                ).strip()
                full = "".join(
                    traceback.format_exception(
                        type(error), error, error.__traceback__
                    )
                )
                if job.cancel_event.is_set():
                    job.finish("cancelled", error=message, traceback_text=full)
                else:
                    job.finish("failed", error=message, traceback_text=full)
            else:
                state = "cancelled" if job.cancel_event.is_set() else "done"
                job.finish(state, result)

        thread = threading.Thread(
            target=run, name=f"repro-serve-{job.id}", daemon=True
        )
        thread.start()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: stop accepting work, cancel live jobs, wake
        every event stream.

        Study jobs cancel through their events (a running study aborts
        at its next batch boundary, a queued one never starts); suite
        jobs are marked cancelled — their durable queues survive, so an
        external worker fleet (or a later ``--resume``) can still finish
        the work.  Driver threads are daemons and are not joined: a
        study mid-batch dies with the process rather than stalling
        shutdown.
        """
        with self._lock:
            self._closing = True
            jobs = list(self._jobs.values())
        for job in jobs:
            job.cancel_event.set()
            job.finish("cancelled", error="service shut down")
