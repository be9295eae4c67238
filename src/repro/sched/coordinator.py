"""Suite-level driver of the distributed work queue.

A :class:`Coordinator` owns the lifecycle of one distributed suite run:

1. **enqueue** — turn the :class:`~repro.api.spec.SuiteSpec` into durable
   :class:`~repro.sched.queue.TaskRecord` entries (one per member, or one
   per scope-path shard with ``shard_members=True`` for finer-grained
   stealing), honoring resume records: members whose completion record
   already matches their spec replay without entering the queue at all.
2. **drive** — watch the queue, stream per-member progress events, and
   (by default) *participate*: the coordinator runs its own worker step
   between polls, so ``Coordinator(session, suite).run()`` completes
   even with zero external workers, and merely accelerates as
   ``python -m repro worker`` processes attach.
3. **assemble** — adapt the committed task records back into
   :class:`~repro.api.results.StudyResult` objects (native attributes
   restored from the ``.raw.pkl`` written at commit when possible), merge
   shard results in canonical order, write each member's completion
   record with ``Session._write_suite_record`` (so ``--resume`` works
   after a distributed run), and finish through ``Session._finish_suite``
   — the one builder of the :class:`~repro.api.results.SuiteResult` and
   writer of ``manifest.json`` for every executor.  Rows are
   bitwise-identical to the in-process path: scheduling never influences
   results, only wall-clock.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.api.registry import get_study
from repro.api.results import StudyResult, SuiteResult, merge_results
from repro.api.spec import StudySpec, SuiteSpec
from repro.sched.queue import TaskQueue, TaskRecord
from repro.sched.worker import Worker
from repro.telemetry.tracing import suite_trace_context, trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session, SuiteProgress

__all__ = ["Coordinator"]


def _shards(spec: StudySpec) -> Dict[str, StudySpec]:
    """Split ``spec`` along its registry shard axis, keyed by scope path.

    The key (``task_names=sentiment``) is the shard's identity and the
    order is that of the values in the spec, so shards merged in plan
    order never depend on scheduling.  A spec with fewer than two values
    on its axis stays whole under the key ``""``, and so does one with
    duplicate values, which would collapse onto one key: it then runs
    whole, so its rows appear once per occurrence.
    """
    axis = get_study(spec.study).shard_param
    values = spec.params.get(axis) if axis is not None else None
    if isinstance(values, list) and len(values) > 1:
        keys = [f"{axis}={value}" for value in values]
        if len(set(keys)) == len(keys):
            return {
                key: spec.with_params(**{axis: [value]})
                for key, value in zip(keys, values)
            }
    return {"": spec}


class Coordinator:
    """Enqueue, drive and assemble one distributed suite run.

    The one entry point into the work queue: ``repro suite
    --distributed`` and the study service's suite jobs each build one;
    :meth:`Session.run_suite <repro.api.session.Session.run_suite>` is
    the in-process loop and never touches the queue.

    Parameters
    ----------
    session:
        The coordinating :class:`~repro.api.session.Session`; must be
        bound to a ``cache_dir`` (the queue lives inside it).
    suite:
        The manifest to execute (validated before anything is enqueued).
    shard_members:
        Pre-shard members along their registry shard axis, one task per
        scope path (``task_names=sentiment``), so workers steal at shard
        rather than member granularity.  Rows stay bitwise-identical: the
        shards merge in plan order through
        :func:`~repro.api.results.merge_results`, and a sharded member's
        ``report()`` concatenates the per-shard reports.
    lease_seconds, poll_seconds:
        Queue lease for claimed tasks (``None``:
        :attr:`~repro.sched.queue.TaskQueue.LEASE_SECONDS`) and the
        coordinator's poll cadence (positive: zero would spin on the
        queue; ``None``: :attr:`POLL_SECONDS`).
    max_attempts:
        Executions a task gets before a *transient* failure parks it
        (``None``: the queue's default).
    stall_seconds:
        Progress-coupled lease renewal threshold for the participating
        worker (``None``: renew unconditionally); external
        ``repro worker`` processes configure their own.
    """

    #: Poll cadence when the caller names none — the one default for
    #: ``repro suite --distributed`` and the service's suite jobs.  It
    #: bounds how long a finished suite waits before a watching
    #: coordinator sees it; one watch-only poll costs well under a
    #: millisecond.
    POLL_SECONDS = 0.05

    def __init__(
        self,
        session: "Session",
        suite: SuiteSpec,
        *,
        shard_members: bool = False,
        lease_seconds: Optional[float] = None,
        poll_seconds: Optional[float] = None,
        max_attempts: Optional[int] = None,
        stall_seconds: Optional[float] = None,
    ) -> None:
        if session.cache.cache_dir is None:
            raise ValueError(
                "distributed suite execution shares work through the per-key "
                "store and therefore requires a cache_dir"
            )
        if poll_seconds is None:
            poll_seconds = self.POLL_SECONDS
        if poll_seconds <= 0:
            raise ValueError("poll_seconds must be positive")
        suite.validate()
        self.session = session
        self.suite = suite
        self.shard_members = bool(shard_members)
        self.poll_seconds = float(poll_seconds)
        self.stall_seconds = stall_seconds
        # The queue namespace is invisible to store GC (see
        # FileStore.namespace), so task state can never be collected out
        # from under a live run.
        session.cache.namespace("queue")
        self.queue = TaskQueue.for_suite(
            session.cache.cache_dir,
            suite.name,
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
        )
        # What enqueue() replayed; None until the suite is enqueued.
        self._replayed: Optional[Dict[str, StudyResult]] = None

    # ------------------------------------------------------------------
    # Planning and enqueue
    # ------------------------------------------------------------------
    def plan(
        self, *, skip_members: Tuple[str, ...] = ()
    ) -> List[TaskRecord]:
        """The task graph: schedule order, optionally scope-path sharded."""
        order = self.suite.schedule_order()
        specs = dict(self.suite.specs)
        # Every task carries the suite's deterministic trace context, so
        # any worker on any host parents its task span under the same
        # root.  Deterministic (a pure function of the suite name) means
        # re-enqueueing produces byte-identical plans — the resume-join
        # equality check is unaffected.
        trace_ctx = suite_trace_context(self.suite.name).to_dict()
        tasks: List[TaskRecord] = []
        for member in order:
            if member in skip_members:
                continue
            spec = specs[member]
            priority = self.suite.priorities.get(member, 0)
            depends = tuple(
                dep
                for dep in self.suite.depends_on.get(member, ())
                if dep not in skip_members
            )
            shards = _shards(spec) if self.shard_members else {"": spec}
            if len(shards) == 1:
                tasks.append(
                    TaskRecord(
                        id=member,
                        member=member,
                        spec=spec,
                        priority=priority,
                        depends_on=depends,
                        index=len(tasks),
                        trace=trace_ctx,
                    )
                )
                continue
            for shard, (shard_key, shard_spec) in enumerate(shards.items()):
                tasks.append(
                    TaskRecord(
                        id=f"{member}@{shard}",
                        member=member,
                        spec=shard_spec,
                        priority=priority,
                        depends_on=depends,
                        shard_key=shard_key,
                        index=len(tasks),
                        trace=trace_ctx,
                    )
                )
        return tasks

    def enqueue(
        self, *, resume: bool = False
    ) -> Dict[str, StudyResult]:
        """Durably enqueue the suite; returns the members replayed from
        resume records instead of queued (empty unless ``resume``).

        Without ``resume`` the queue is (re)built fresh — matching the
        in-process no-resume contract, where every member re-executes —
        and an execution already in flight (live leases) is refused rather
        than clobbered.  With ``resume``, an identical existing queue is
        joined as-is: committed tasks stay committed and nothing touches
        markers workers may hold.  This coordinator enqueues at most once;
        :meth:`run` reuses an explicit earlier :meth:`enqueue` and its
        replays.
        """
        if self._replayed is None:
            _, replayed = self.session._replay_suite(self.suite, resume)
            self.queue.create(
                self.suite,
                self.plan(skip_members=tuple(replayed)),
                keep_completed=resume,
            )
            self._replayed = replayed
        return self._replayed

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        participate: bool = True,
        progress: Optional["SuiteProgress"] = None,
        resume: bool = False,
        timeout: Optional[float] = None,
    ) -> SuiteResult:
        """Execute the suite through the queue and assemble the result.

        With ``participate`` (the default) the coordinator claims tasks
        itself between polls — external workers are an accelerator, never
        a requirement.  With ``participate=False`` it only watches, which
        is how a pure submit-and-monitor control plane behaves; combine
        with ``timeout`` to bound the wait for external workers.
        """
        # The suite root span carries the deterministic context every
        # task record propagates, so worker-side task spans — this
        # process's and every remote one's — stitch under it.
        with trace.span(
            f"suite/{self.suite.name}",
            context=suite_trace_context(self.suite.name),
            suite=self.suite.name,
            role="coordinator",
            members=len(self.suite),
        ):
            return self._run(
                participate=participate,
                progress=progress,
                resume=resume,
                timeout=timeout,
            )

    def _run(
        self,
        *,
        participate: bool,
        progress: Optional["SuiteProgress"],
        resume: bool,
        timeout: Optional[float],
    ) -> SuiteResult:
        started = time.perf_counter()
        replayed = self.enqueue(resume=resume)
        total = len(self.suite)
        # Replays report first, numbered 0..k-1 in schedule order, so a
        # full resume streams exactly the events run_suite streams.
        if progress is not None:
            for sequence, (name, result) in enumerate(replayed.items()):
                progress("replay", name, sequence, total, result)
        sequence = len(replayed)
        worker = (
            Worker(
                self.session.cache.cache_dir,
                suite=self.suite.name,
                worker_id=f"coordinator:{os.getpid()}",
                lease_seconds=self.queue.lease_seconds,
                poll_seconds=self.poll_seconds,
                # Serve exactly this run's queue: same retry budget, same
                # stall policy.
                max_attempts=self.queue.max_attempts,
                stall_seconds=self.stall_seconds,
                # Execute through the coordinator's own session, so its
                # cache warms (and its statistics see) the work this
                # process does, exactly like the in-process path.
                session=self.session,
            )
            if participate
            else None
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        assembled: Dict[str, StudyResult] = dict(replayed)
        started_index: Dict[str, int] = {}
        member_tasks: Optional[Dict[str, List[TaskRecord]]] = None
        try:
            while True:
                try:
                    if member_tasks is None:
                        member_tasks = {}
                        for task in self.queue.plan():
                            member_tasks.setdefault(task.member, []).append(
                                task
                            )
                    state = self.queue.snapshot()
                    sequence = self._report_progress(
                        member_tasks, state, started_index, assembled,
                        progress, sequence, total,
                    )
                    finished = self.queue.complete(state)
                except FileNotFoundError:
                    # plan.json is briefly absent while a sibling
                    # coordinator *rebuilds* the queue (no-resume re-run),
                    # and permanently absent once a sibling finished the
                    # run and *destroyed* it.  Wait the rebuild window
                    # out; a queue that stays gone means the run is over
                    # and its completion records carry every member.
                    member_tasks = None  # re-read the plan if it returns
                    if self._queue_reappears():
                        continue
                    return self._assemble_from_records(
                        assembled, started, progress, sequence, total
                    )
                if finished:
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"distributed suite {self.suite.name!r} incomplete "
                        f"after {timeout:.0f}s: "
                        f"{len(state.done)}/{sum(len(t) for t in member_tasks.values())} "
                        f"tasks done"
                    )
                if worker is not None and worker.step():
                    continue  # executed something; poll again immediately
                time.sleep(self.poll_seconds)
        finally:
            if worker is not None:
                worker.close()
        try:
            return self._assemble(member_tasks, assembled, started)
        except FileNotFoundError:
            # The queue was destroyed between the final poll and assembly.
            return self._assemble_from_records(
                assembled, started, progress, sequence, total
            )

    def _report_progress(
        self,
        member_tasks: Dict[str, List[TaskRecord]],
        state,
        started_index: Dict[str, int],
        assembled: Dict[str, StudyResult],
        progress: Optional["SuiteProgress"],
        sequence: int,
        total: int,
    ) -> int:
        """Stream the in-process progress contract from queue state.

        A member's first observed activity (any of its tasks leased or
        committed) emits ``start``; full commitment emits ``done`` with
        the *same* index, matching :meth:`Session.run_suite`.  A member
        that completes between polls emits both back to back.  Members
        stream in plan order, which is schedule order, so members seen
        finished in one poll stream dependencies first.  Members in
        ``assembled`` (replayed or done) are skipped; a done member's
        adapted result is kept there so the final assembly reuses it
        instead of re-reading records and re-unpickling raws.
        """
        for member, tasks in member_tasks.items():
            if member in assembled:
                continue
            if member not in started_index and any(
                task.id in state.running or task.id in state.done
                for task in tasks
            ):
                started_index[member] = sequence
                sequence += 1
                if progress is not None:
                    progress(
                        "start", member, started_index[member], total, None
                    )
            if not all(task.id in state.done for task in tasks):
                continue
            assembled[member] = self._member_result(member, tasks)
            if progress is not None:
                progress(
                    "done",
                    member,
                    started_index[member],
                    total,
                    assembled[member],
                )
        return sequence

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _member_result(
        self, member: str, tasks: List[TaskRecord]
    ) -> StudyResult:
        """Adapt a member's committed task records into one StudyResult.

        Shards merge in plan (canonical) order, so assembly is a pure
        function of the manifest — which worker committed what, and when,
        never shows in the rows.
        """
        parts: List[StudyResult] = []
        for task in sorted(tasks, key=lambda t: t.index):
            record = self.queue.load_record(task.id)
            if record is None:
                # Either the queue is being destroyed under us (a sibling
                # finished the run — the vanished-queue fallback recovers
                # from its completion records) or the directory is truly
                # corrupt (the fallback then fails with a clear message).
                raise FileNotFoundError(
                    f"task {task.id!r} is marked done but its result record "
                    f"is missing"
                )
            parts.append(
                StudyResult.from_record(
                    record,
                    raw=self.queue.load_raw(task.id, task.spec),
                    replayed=False,
                )
            )
        return merge_results(parts, spec=dict(self.suite.specs)[member])

    def _queue_reappears(self, grace_seconds: float = 2.0) -> bool:
        """Wait out a transient plan-file gap (a sibling's atomic rebuild
        unlinks ``plan.json`` before rewriting it); returns ``True`` when
        the queue exists again within the grace window."""
        deadline = time.monotonic() + max(grace_seconds, 5 * self.poll_seconds)
        while time.monotonic() < deadline:
            if self.queue.exists():
                return True
            time.sleep(min(0.05, self.poll_seconds))
        return self.queue.exists()

    def _assemble_from_records(
        self,
        assembled: Dict[str, StudyResult],
        started: float,
        progress: Optional["SuiteProgress"],
        sequence: int,
        total: int,
    ) -> SuiteResult:
        """Assemble after the queue vanished mid-run.

        The only legitimate way a queue disappears under a live
        coordinator is a sibling coordinator completing the run and
        destroying it — in which case it mirrored every member into the
        suite's completion records first, so this coordinator can return
        the identical result from those.  Any member without a matching
        record means something else happened (e.g. an operator deleted
        state), which is an error, not silent data.
        """
        _, recorded = self.session._replay_suite(self.suite, resume=True)
        for member, result in recorded.items():
            if member in assembled:
                continue
            assembled[member] = result
            if progress is not None:
                progress("replay", member, sequence, total, result)
            sequence += 1
        for member in self.suite.names:
            if member not in assembled:
                raise RuntimeError(
                    f"the queue of distributed suite {self.suite.name!r} "
                    f"disappeared mid-run and no completion record covers "
                    f"member {member!r}; if the queue directory was "
                    f"deleted by hand, re-run the suite"
                )
        # The sibling that destroyed the queue wrote the manifest.
        return self.session._finish_suite(
            self.suite, None, assembled, time.perf_counter() - started
        )

    def _assemble(
        self,
        member_tasks: Dict[str, List[TaskRecord]],
        assembled: Dict[str, StudyResult],
        started: float,
    ) -> SuiteResult:
        state = self.queue.snapshot(detail=True)
        failures = {
            task_id: self.queue.load_error(task_id)
            for task_id in sorted(state.failed)
        }
        if failures:
            details = "; ".join(
                f"{task_id}: "
                f"{message.splitlines()[0] if message else 'unknown error'}"
                + (
                    f" (after {state.attempts[task_id]} attempts)"
                    if state.attempts.get(task_id, 0) > 1
                    else ""
                )
                for task_id, message in failures.items()
            )
            raise RuntimeError(
                f"distributed suite {self.suite.name!r} failed: {details} "
                f"(full tracebacks: "
                f"{os.path.join(self.queue.directory, 'errors')})"
            )
        results: Dict[str, StudyResult] = {}
        records_dir = self.session._suite_records_dir(self.suite)
        for member in self.suite.names:
            result = assembled.get(member)
            if result is None:  # completed on the final poll, not yet built
                result = self._member_result(member, member_tasks[member])
            results[member] = result
            # Mirror the in-process path's completion records so a later
            # --resume (distributed or not) replays this member.  Members
            # replayed *into* this run already have a matching record.
            if not result.replayed:
                self.session._write_suite_record(records_dir, member, result)
        suite_result = self.session._finish_suite(
            self.suite, records_dir, results, time.perf_counter() - started
        )
        # The queue is spent scratch state now — every result lives in the
        # completion records above.  Destroying it keeps the GC-exempt
        # queue namespace from accumulating (one raw pickle per task adds
        # up) and makes a later no-resume re-run start clean.  A *failed*
        # run returns early above and keeps its queue for inspection.
        self.queue.destroy()
        return suite_result
