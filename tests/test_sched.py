"""Tests for the distributed work-queue scheduler (repro.sched).

Queue invariants are pinned at three levels:

* **protocol** — claim exclusivity under thread races, lease expiry and
  stealing, exactly-once commit (a stale claim can never double-commit),
  dependency gating and priority order, bounded retries for transient
  failures, all property-tested over random task graphs with simulated
  workers;
* **system** — K real workers (threads and subprocesses) cooperatively
  executing a suite against one shared cache dir produce a
  ``SuiteResult`` bitwise-identical to the in-process path, including
  after a worker is SIGKILLed mid-task (its leased tasks are stolen and
  completed);
* **spec** — ``priority``/``depends_on`` round-trip through the manifest
  JSON, ``schedule_order`` is a priority-respecting topological order,
  and dependency cycles are rejected at ``SuiteSpec.validate()`` with an
  error naming the offending member.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sched.queue
from repro.__main__ import main
from repro.api import Session, StudySpec, SuiteSpec
from repro.engine.cache import dump_fidelity
from repro.sched import Coordinator, TaskQueue, TaskRecord, Worker
from repro.sched.queue import DEFAULT_MAX_ATTEMPTS, retry_not_before
from repro.telemetry import set_enabled
from repro.telemetry.instruments import SCHED_BACKOFF_GATED, SCHED_CLAIMS

ANALYTIC = StudySpec(study="sample_size", params={"gammas": [0.7]})

# The canonical three-member suite and row canonicalizer live in
# conftest, shared with test_suite/test_serve.
from suite_fixtures import SUITE_MEMBERS as MEMBERS, canonical_rows, make_suite

_rows = canonical_rows


def _suite(directory, **kwargs) -> SuiteSpec:
    return make_suite(directory, name="sched-suite", **kwargs)


def _reference_rows(tmp_path):
    """In-process reference run of MEMBERS (the bitwise ground truth)."""
    suite = _suite(tmp_path / "reference")
    with Session.for_suite(suite) as session:
        reference = session.run_suite(suite)
    return {name: _rows(reference[name]) for name in suite.names}


def _tasks(graph, *, priorities=None):
    """TaskRecords for a {member: deps} graph (insertion order = plan order)."""
    priorities = priorities or {}
    return [
        TaskRecord(
            id=member,
            member=member,
            spec=ANALYTIC,
            priority=priorities.get(member, 0),
            depends_on=tuple(deps),
            index=index,
        )
        for index, (member, deps) in enumerate(graph.items())
    ]


def _queue_suite(graph):
    return SuiteSpec(
        name="q", specs=[(member, ANALYTIC) for member in graph]
    )


def _make_queue(tmp_path, **kwargs):
    kwargs.setdefault("lease_seconds", 30)
    return TaskQueue(str(tmp_path / "q"), **kwargs)


@pytest.fixture
def telemetry_on():
    """Count metrics even when the run sets ``REPRO_TELEMETRY=0``."""
    previous = set_enabled(True)
    yield
    set_enabled(previous)


@pytest.fixture(scope="session")
def reference_rows(tmp_path_factory):
    """One in-process reference run of MEMBERS shared by every bitwise
    comparison."""
    return _reference_rows(tmp_path_factory.mktemp("reference"))


# ----------------------------------------------------------------------
# Protocol: claims, leases, stealing, exactly-once commit
# ----------------------------------------------------------------------
class TestTaskQueueProtocol:
    def test_claim_is_exclusive_under_races(self, tmp_path):
        queue = _make_queue(tmp_path)
        graph = {"solo": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        task = queue.plan()[0]
        barrier = threading.Barrier(8)
        claims = []

        def contender():
            barrier.wait()
            claim = queue.claim(task, worker="racer")
            if claim is not None:
                claims.append(claim)

        threads = [threading.Thread(target=contender) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(claims) == 1
        assert queue.snapshot().running.keys() == {"solo"}

    def test_lease_expiry_enables_steal_and_blocks_stale_commit(self, tmp_path):
        queue = _make_queue(tmp_path, lease_seconds=0.2)
        graph = {"solo": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        task = queue.plan()[0]
        stale = queue.claim(task, worker="crasher")
        assert stale is not None
        # Within the lease the task is invisible to other workers.
        assert queue.claimable() == []
        time.sleep(0.25)
        # Expired: the task is claimable again, and the steal wins.
        assert [t.id for t in queue.claimable()] == ["solo"]
        thief = queue.claim(task, worker="thief")
        assert thief is not None
        # The crashed worker wakes up: its heartbeat and commit both fail.
        assert not queue.heartbeat(stale)
        assert not queue.commit(stale, {"who": "stale"})
        # The thief commits exactly once; the marker cannot be overwritten.
        assert queue.commit(thief, {"who": "thief"})
        assert queue.load_record("solo") == {"who": "thief"}
        state = queue.snapshot()
        assert state.done == {"solo"} and not state.running
        assert queue.complete()

    def test_dependency_gating_and_priority_order(self, tmp_path):
        queue = _make_queue(tmp_path)
        graph = {"low": (), "high": (), "gated": ("low",)}
        queue.create(
            _queue_suite(graph), _tasks(graph, priorities={"high": 5})
        )
        # 'gated' is invisible until 'low' commits; 'high' outranks 'low'.
        assert [t.id for t in queue.claimable()] == ["high", "low"]
        low = next(t for t in queue.plan() if t.id == "low")
        claim = queue.claim(low, worker="w")
        assert queue.commit(claim, {"rows": []})
        assert [t.id for t in queue.claimable()] == ["high", "gated"]

    def test_failed_dependency_blocks_dependents_but_completes(self, tmp_path):
        queue = _make_queue(tmp_path)
        graph = {"boom": (), "after": ("boom",), "free": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        boom = next(t for t in queue.plan() if t.id == "boom")
        claim = queue.claim(boom, worker="w")
        assert queue.fail(claim, "ValueError: synthetic")
        # 'after' can never run, 'free' still can; once 'free' commits the
        # queue is complete (workers with --exit-when-done terminate).
        assert [t.id for t in queue.claimable()] == ["free"]
        assert not queue.complete()
        free = next(t for t in queue.plan() if t.id == "free")
        assert queue.commit(queue.claim(free, worker="w"), {"rows": []})
        assert queue.complete()
        assert "synthetic" in queue.load_error("boom")

    def test_failed_shard_dooms_siblings_out_of_claimable(self, tmp_path):
        # One shard of a member fails deterministically: the member can
        # never assemble, so its surviving shards must stop being claimed
        # (they would burn compute for a result the run already discarded)
        # and the queue must still reach completion.
        queue = _make_queue(tmp_path)
        tasks = [
            TaskRecord(id="m@0", member="m", spec=ANALYTIC, index=0),
            TaskRecord(id="m@1", member="m", spec=ANALYTIC, index=1),
        ]
        queue.create(SuiteSpec(name="q", specs=[("m", ANALYTIC)]), tasks)
        claim = queue.claim(tasks[0], worker="w")
        assert queue.fail(claim, "ValueError: synthetic")
        assert queue.claimable() == []
        assert queue.complete()

    def test_release_requeues_and_resume_create_keeps_completions(self, tmp_path):
        queue = _make_queue(tmp_path)
        graph = {"a": (), "b": ()}
        suite = _queue_suite(graph)
        tasks = _tasks(graph)
        queue.create(suite, tasks)
        claim = queue.claim(queue.plan()[0], worker="w")
        assert queue.release(claim)
        assert queue.snapshot().pending == {"a", "b"}
        # Identical plan re-created with keep_completed (the resume path):
        # a no-op — done state preserved, no marker rewritten.
        done = queue.claim(queue.plan()[0], worker="w")
        assert queue.commit(done, {"rows": []})
        queue.create(suite, tasks, keep_completed=True)
        state = queue.snapshot()
        assert state.done == {"a"} and state.pending == {"b"}

    def test_fresh_create_wipes_same_plan_completions(self, tmp_path):
        # Without keep_completed (a no-resume re-run), an identical idle
        # queue is rebuilt: every task runs again, matching the
        # in-process no-resume contract.
        queue = _make_queue(tmp_path)
        graph = {"a": ()}
        suite = _queue_suite(graph)
        tasks = _tasks(graph)
        queue.create(suite, tasks)
        assert queue.commit(queue.claim(queue.plan()[0], worker="w"), {"rows": []})
        queue.create(suite, tasks)
        state = queue.snapshot()
        assert state.done == set() and state.pending == {"a"}

    def test_changed_plan_rebuilds_idle_queue(self, tmp_path):
        queue = _make_queue(tmp_path)
        graph = {"a": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        claim = queue.claim(queue.plan()[0], worker="w")
        assert queue.commit(claim, {"rows": []})
        changed = {"a": (), "b": ()}
        queue.create(_queue_suite(changed), _tasks(changed))
        state = queue.snapshot()
        # Old completion is gone (the old plan's results are meaningless
        # for a changed plan) and both tasks are pending again.
        assert state.done == set() and state.pending == {"a", "b"}

    def test_changed_plan_refused_while_leased(self, tmp_path):
        queue = _make_queue(tmp_path)
        graph = {"a": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        assert queue.claim(queue.plan()[0], worker="w") is not None
        changed = {"a": (), "b": ()}
        with pytest.raises(RuntimeError, match="still leased"):
            queue.create(_queue_suite(changed), _tasks(changed))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_simulated_fleet_commits_every_task_exactly_once(self, data, tmp_path_factory):
        """Random DAG + racing simulated workers with crash injection:
        every task commits exactly once, dependencies always commit before
        dependents, and the queue reaches completion."""
        n_tasks = data.draw(st.integers(min_value=1, max_value=6), label="n_tasks")
        members = [f"t{i}" for i in range(n_tasks)]
        graph = {
            member: tuple(
                dep
                for dep in members[:index]
                if data.draw(st.booleans(), label=f"edge-{dep}-{member}")
            )
            for index, member in enumerate(members)
        }
        priorities = {
            member: data.draw(
                st.integers(min_value=-2, max_value=2), label=f"prio-{member}"
            )
            for member in members
        }
        crashy = {
            member: data.draw(st.booleans(), label=f"crash-{member}")
            for member in members
        }
        directory = tmp_path_factory.mktemp("fleet")
        queue = TaskQueue(str(directory / "q"), lease_seconds=0.05)
        queue.create(_queue_suite(graph), _tasks(graph, priorities=priorities))
        commits = []
        commit_lock = threading.Lock()
        crashed_once = set()

        def fleet_worker(worker_id):
            idle = 0
            while idle < 200:
                state = queue.snapshot()
                if queue.complete(state):
                    return
                progressed = False
                for task in queue.claimable(state):
                    claim = queue.claim(task, worker=worker_id, state=state)
                    if claim is None:
                        continue
                    progressed = True
                    with commit_lock:
                        crash = crashy[task.id] and task.id not in crashed_once
                        if crash:
                            crashed_once.add(task.id)
                    if crash:
                        break  # abandon the claim: no heartbeat, no commit
                    done_before = queue.snapshot().done
                    if queue.commit(claim, {"task": task.id}):
                        with commit_lock:
                            commits.append((task.id, frozenset(done_before)))
                    break
                if not progressed:
                    idle += 1
                    time.sleep(0.01)

        threads = [
            threading.Thread(target=fleet_worker, args=(f"w{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert queue.complete()
        committed = [task_id for task_id, _ in commits]
        assert sorted(committed) == sorted(members)  # exactly once each
        for task_id, done_before in commits:
            assert set(graph[task_id]) <= done_before, (
                f"{task_id} committed before its dependencies {graph[task_id]}"
            )


# ----------------------------------------------------------------------
# Protocol: bounded retries
# ----------------------------------------------------------------------
class TestRetryLifecycle:
    def test_transient_failure_requeues_with_attempts_until_exhausted(
        self, tmp_path, monkeypatch
    ):
        # RETRY_BASE_SECONDS=0: this test exercises the attempts budget,
        # not the backoff gate (TestRetryBackoff covers that), so retried
        # tasks must be claimable immediately.
        monkeypatch.setattr(repro.sched.queue, "RETRY_BASE_SECONDS", 0.0)
        queue = _make_queue(tmp_path, max_attempts=3)
        graph = {"flaky": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        for attempt in range(2):
            claim = queue.claim(queue.claimable()[0], worker="w")
            assert claim.attempts == attempt
            assert queue.fail(claim, "OSError: blip", transient=True) == "retried"
            state = queue.snapshot(detail=True)
            assert state.pending == {"flaky"} and not state.failed
            assert state.attempts["flaky"] == attempt + 1
        # Third (= max_attempts) execution fails too: the budget is spent.
        claim = queue.claim(queue.claimable()[0], worker="w")
        assert claim.attempts == 2
        assert queue.fail(claim, "OSError: blip", transient=True) == "failed"
        state = queue.snapshot(detail=True)
        assert state.failed == {"flaky"} and state.attempts["flaky"] == 3
        assert "blip" in queue.load_error("flaky")
        assert queue.complete()

    def test_deterministic_failure_parks_on_first_attempt(self, tmp_path):
        queue = _make_queue(tmp_path, max_attempts=3)
        graph = {"boom": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        claim = queue.claim(queue.claimable()[0], worker="w")
        # transient=False (the default): retrying would raise identically.
        assert queue.fail(claim, "ValueError: bad params") == "failed"
        state = queue.snapshot(detail=True)
        assert state.failed == {"boom"} and state.attempts["boom"] == 1
        assert "bad params" in queue.load_error("boom")

    def test_steals_do_not_consume_the_retry_budget(self, tmp_path):
        # Crash recovery must stay unbounded: a task bounced between dying
        # workers is the lease's business, not the retry counter's.
        queue = _make_queue(tmp_path, lease_seconds=0.1, max_attempts=2)
        graph = {"solo": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        for _ in range(4):  # more abandonments than max_attempts
            task = queue.plan()[0]
            assert queue.claim(task, worker="crasher") is not None
            time.sleep(0.15)  # abandon: no heartbeat, lease expires
        claim = queue.claim(queue.plan()[0], worker="survivor")
        assert claim is not None and claim.attempts == 0
        assert queue.commit(claim, {"rows": []})
        assert queue.snapshot().done == {"solo"}

    def test_backoff_gate_defers_then_admits_a_retry(self, tmp_path, monkeypatch):
        # The full lifecycle on a short real clock: a transient failure
        # re-enqueues behind a durable not-before gate, claims are refused
        # while it holds (the task is pending, not failed), and the gate
        # admits the retry once it passes.
        monkeypatch.setattr(repro.sched.queue, "RETRY_BASE_SECONDS", 0.3)
        monkeypatch.setattr(repro.sched.queue, "RETRY_CAP_SECONDS", 0.6)
        queue = _make_queue(tmp_path, max_attempts=3)
        graph = {"flaky": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        claim = queue.claim(queue.plan()[0], worker="w")
        assert queue.fail(claim, "OSError: blip", transient=True) == "retried"
        state = queue.snapshot(detail=True)
        assert state.pending == {"flaky"} and not state.failed
        assert state.not_before["flaky"] > time.time()
        assert queue.claim(queue.plan()[0], worker="w") is None
        # The status read path surfaces the remaining wait.
        assert queue.status()["backoff"]["flaky"] > 0
        assert not queue.complete()
        deadline = time.time() + 30
        claim = None
        while claim is None and time.time() < deadline:
            time.sleep(0.02)
            claim = queue.claim(queue.plan()[0], worker="w")
        assert claim is not None and claim.attempts == 1
        assert queue.commit(claim, {"rows": []})
        assert queue.snapshot().done == {"flaky"}

    def test_release_is_not_gated_by_backoff(self, tmp_path, monkeypatch):
        # A graceful release is not a failure: the task must be claimable
        # again immediately, with no backoff residue from the claim.
        monkeypatch.setattr(repro.sched.queue, "RETRY_BASE_SECONDS", 60.0)
        queue = _make_queue(tmp_path)
        graph = {"solo": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        claim = queue.claim(queue.plan()[0], worker="w")
        assert queue.release(claim)
        assert queue.claim(queue.plan()[0], worker="w") is not None

    def test_gated_claim_counts_as_backoff_not_lost(
        self, tmp_path, monkeypatch, telemetry_on
    ):
        # A worker claims from a plain snapshot, which carries no backoff
        # gates: the refusal must still count where the gate is read.
        monkeypatch.setattr(repro.sched.queue, "RETRY_BASE_SECONDS", 60.0)
        queue = _make_queue(tmp_path)
        graph = {"flaky": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        claim = queue.claim(queue.plan()[0], worker="w")
        assert queue.fail(claim, "OSError: blip", transient=True) == "retried"
        gated = SCHED_BACKOFF_GATED.value()
        lost = SCHED_CLAIMS.value(outcome="lost")
        state = queue.snapshot()
        assert queue.claim(queue.claimable(state)[0], worker="w", state=state) is None
        assert SCHED_BACKOFF_GATED.value() == gated + 1
        assert SCHED_CLAIMS.value(outcome="lost") == lost

    def test_stale_claim_cannot_fail_a_stolen_task(self, tmp_path):
        queue = _make_queue(tmp_path, lease_seconds=0.1)
        graph = {"solo": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        stale = queue.claim(queue.plan()[0], worker="crasher")
        time.sleep(0.15)
        thief = queue.claim(queue.plan()[0], worker="thief")
        assert thief is not None
        # The stale holder's failure report is void: the thief owns the
        # task's fate now ("" = lost, falsy — the pre-retry contract).
        assert queue.fail(stale, "OSError: late", transient=True) == ""
        assert queue.fail(stale, "ValueError: late") == ""
        assert queue.commit(thief, {"rows": []})
        assert queue.snapshot().done == {"solo"}
        assert queue.load_error("solo") == ""

    def test_crash_right_after_parking_keeps_the_failure_reason(
        self, tmp_path, monkeypatch
    ):
        # A worker killed right after it renamed the task into failed/
        # must not leave a parked task without its error record.
        queue = _make_queue(tmp_path)
        graph = {"a": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        claim = queue.claim(queue.plan()[0], worker="w")

        class Killed(BaseException):
            pass

        rename = os.rename

        def rename_then_die(source, target):
            rename(source, target)
            if os.path.basename(os.path.dirname(target)) == "failed":
                raise Killed

        monkeypatch.setattr(os, "rename", rename_then_die)
        with pytest.raises(Killed):
            queue.fail(claim, "ValueError: boom")
        monkeypatch.undo()
        state = queue.snapshot(detail=True)
        assert state.failed == {"a"}
        assert queue.load_error("a") == "ValueError: boom"
        assert state.attempts == {"a": 1}


# ----------------------------------------------------------------------
# Retry backoff policy (pure function)
# ----------------------------------------------------------------------
class TestRetryBackoffPolicy:
    @given(
        task_id=st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789-@", min_size=1,
            max_size=24,
        ),
        attempts=st.integers(min_value=1, max_value=40),
        base=st.floats(min_value=0.01, max_value=10.0),
        cap=st.floats(min_value=0.01, max_value=300.0),
    )
    def test_gate_is_deterministic_and_inside_the_jitter_window(
        self, task_id, attempts, base, cap
    ):
        gate = retry_not_before(task_id, attempts, base=base, cap=cap, now=0.0)
        again = retry_not_before(
            task_id, attempts, base=base, cap=cap, now=0.0
        )
        assert gate == again  # seeded from (task id, attempt): no coin flips
        delay = min(cap, base * 2.0 ** (attempts - 1))
        assert delay / 2 <= gate <= delay

    def test_delay_doubles_up_to_the_cap(self):
        # Window midpoints, jitter aside: 2, 4, 8, ... then pinned at cap.
        windows = [
            retry_not_before("m@3", attempts, base=2.0, cap=16.0, now=0.0)
            for attempts in range(1, 8)
        ]
        for attempts, gate in enumerate(windows, start=1):
            delay = min(16.0, 2.0 * 2.0 ** (attempts - 1))
            assert delay / 2 <= gate <= delay
        # Beyond the cap the window stops growing entirely.
        assert windows[-1] == retry_not_before(
            "m@3", 7, base=2.0, cap=16.0, now=0.0
        )

    def test_distinct_tasks_spread_out(self):
        # The whole point of the jitter: a fleet that failed together
        # must not wake together.  20 shards of one member, same attempt,
        # all land at distinct points of the window.
        gates = {
            retry_not_before(f"member@{i}", 1, base=2.0, cap=60.0, now=0.0)
            for i in range(20)
        }
        assert len(gates) == 20

    def test_zero_base_disables_the_gate(self):
        assert retry_not_before("t", 3, base=0.0, cap=60.0, now=7.5) == 7.5
        assert retry_not_before("t", 0, base=2.0, cap=60.0, now=7.5) == 7.5


# ----------------------------------------------------------------------
# On-disk layout
# ----------------------------------------------------------------------
class TestBackendSpecifics:
    def test_filesystem_layout_is_preserved(self, tmp_path):
        # The on-disk contract, byte for byte: queues enqueued by earlier
        # versions must remain readable, and external tooling that
        # inspects the directory must keep working.
        queue = TaskQueue(str(tmp_path / "q"), lease_seconds=30)
        graph = {"a": (), "b": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        root = tmp_path / "q"
        for state_dir in ("pending", "running", "done", "failed", "results", "errors"):
            assert (root / state_dir).is_dir()
        assert (root / "plan.json").is_file()
        assert (root / "suite.json").is_file()
        marker = json.loads((root / "pending" / "a").read_text())
        assert marker == {"task": "a"}
        claim = queue.claim(queue.plan()[0], worker="w1")
        leases = list((root / "running").iterdir())
        assert [path.name.split("#")[0] for path in leases] == ["a"]
        stamp = json.loads(leases[0].read_text())
        assert stamp["task"] == "a" and stamp["worker"] == "w1"
        assert queue.commit(claim, {"rows": []})
        assert (root / "done" / "a").is_file()
        assert json.loads((root / "results" / "a.json").read_text()) == {"rows": []}
        # A fresh TaskQueue over the same directory reads it all back.
        reread = TaskQueue(str(root), lease_seconds=30)
        assert reread.snapshot().done == {"a"}
        assert reread.load_record("a") == {"rows": []}

    @pytest.mark.parametrize("damage", ["corrupt", "foreign"])
    def test_unusable_raw_pickle_degrades_to_the_record(self, tmp_path, damage):
        # The native-result pickle is best-effort: when it is unreadable,
        # or was written for another spec, load_raw returns None and the
        # JSON record stays authoritative.
        queue = _make_queue(tmp_path)
        graph = {"a": ()}
        queue.create(_queue_suite(graph), _tasks(graph))
        record = {"spec": ANALYTIC.to_dict(), "rows": [{"x": 1}]}
        claim = queue.claim(queue.plan()[0], worker="w")
        assert queue.commit(claim, record, raw={"native": 1})
        assert queue.load_raw("a", ANALYTIC) == {"native": 1}
        raw_path = tmp_path / "q" / "results" / "a.raw.pkl"
        if damage == "corrupt":
            raw_path.write_bytes(b"not a pickle")
        else:
            other = ANALYTIC.replace(random_state=7)
            raw_path.write_bytes(dump_fidelity(other.to_dict(), {"native": 1}))
        assert queue.load_raw("a", ANALYTIC) is None
        assert queue.load_record("a") == json.loads(json.dumps(record))


# ----------------------------------------------------------------------
# Spec: scheduling metadata
# ----------------------------------------------------------------------
class TestSchedulingSpec:
    def test_priority_and_depends_on_round_trip_inline_and_field(self):
        suite = SuiteSpec(
            name="s",
            specs=[("a", ANALYTIC), ("b", ANALYTIC), ("c", ANALYTIC)],
            priorities={"c": 7},
            depends_on={"b": ["a"]},
        )
        assert SuiteSpec.from_json(suite.to_json()) == suite
        payload = json.loads(suite.to_json())
        by_name = {entry["name"]: entry for entry in payload["specs"]}
        assert by_name["c"]["priority"] == 7
        assert by_name["b"]["depends_on"] == ["a"]
        assert "priority" not in by_name["a"]
        inline = SuiteSpec.from_dict(payload)
        assert inline.priorities == {"c": 7}
        assert inline.depends_on == {"b": ("a",)}

    def test_cycle_rejected_at_validate_with_member_name(self):
        suite = SuiteSpec(
            name="s",
            specs=[("a", ANALYTIC), ("b", ANALYTIC)],
            depends_on={"a": ["b"], "b": ["a"]},
        )
        with pytest.raises(ValueError, match="suite spec 'a'.*cycle"):
            suite.validate()
        with pytest.raises(ValueError, match="a -> b -> a|b -> a -> b"):
            suite.schedule_order()

    def test_self_dependency_is_a_cycle(self):
        suite = SuiteSpec(
            name="s", specs=[("a", ANALYTIC)], depends_on={"a": ["a"]}
        )
        with pytest.raises(ValueError, match="suite spec 'a'.*cycle"):
            suite.validate()

    def test_unknown_targets_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown member 'ghost'"):
            SuiteSpec(
                name="s", specs=[("a", ANALYTIC)], depends_on={"a": ["ghost"]}
            )
        with pytest.raises(ValueError, match="unknown suite members"):
            SuiteSpec(
                name="s", specs=[("a", ANALYTIC)], priorities={"ghost": 1}
            )

    def test_conflicting_inline_and_field_metadata_rejected(self):
        with pytest.raises(ValueError, match="both inline"):
            SuiteSpec(
                name="s",
                specs=[{"name": "a", "spec": ANALYTIC.to_dict(), "priority": 1}],
                priorities={"a": 2},
            )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_schedule_order_is_topological_and_priority_greedy(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7), label="n")
        members = [f"m{i}" for i in range(n)]
        depends = {
            member: [
                dep
                for dep in members[:index]
                if data.draw(st.booleans(), label=f"edge-{dep}-{member}")
            ]
            for index, member in enumerate(members)
        }
        priorities = {
            member: data.draw(
                st.integers(min_value=-3, max_value=3), label=f"p-{member}"
            )
            for member in members
        }
        suite = SuiteSpec(
            name="s",
            specs=[(member, ANALYTIC) for member in members],
            depends_on={k: v for k, v in depends.items() if v},
            priorities=priorities,
        )
        order = suite.schedule_order()
        assert sorted(order) == sorted(members)
        seen = set()
        position = {member: index for index, member in enumerate(members)}
        for index, member in enumerate(order):
            assert set(depends[member]) <= seen, "dependency ran after dependent"
            # Greedy priority: nothing runnable at this step outranked the
            # chosen member (or tied with an earlier manifest position).
            runnable = [
                other
                for other in members
                if other not in seen
                and set(depends[other]) <= seen
            ]
            chosen_key = (-priorities[member], position[member])
            assert chosen_key == min(
                (-priorities[other], position[other]) for other in runnable
            )
            seen.add(member)


# ----------------------------------------------------------------------
# System: real workers over a shared cache dir
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestDistributedExecution:
    def test_three_worker_threads_match_in_process_bitwise(
        self, tmp_path, reference_rows
    ):
        reference = reference_rows
        suite = _suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            coordinator = Coordinator(
                session, suite, poll_seconds=0.05
            )
            coordinator.enqueue()
            workers = [
                Worker(str(tmp_path / "store"), poll_seconds=0.05)
                for _ in range(3)
            ]
            threads = [
                threading.Thread(
                    target=worker.run, kwargs={"exit_when_done": True}
                )
                for worker in workers
            ]
            for thread in threads:
                thread.start()
            result = coordinator.run(participate=False, timeout=240)
            for thread in threads:
                thread.join(timeout=240)
        assert result.names == suite.names
        for name in suite.names:
            assert _rows(result[name]) == reference[name], name
            assert not result[name].replayed
        # Exactly-once: each of the 3 tasks committed by exactly one worker.
        committed = sum(worker.stats.committed for worker in workers)
        assert committed == len(suite)
        assert all(worker.stats.failed == 0 for worker in workers)

    def test_sharded_members_steal_at_shard_granularity(
        self, tmp_path, reference_rows
    ):
        reference = reference_rows
        suite = _suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            coordinator = Coordinator(
                session, suite, shard_members=True, poll_seconds=0.05
            )
            coordinator.enqueue()
            plan_ids = [task.id for task in coordinator.queue.plan()]
            # figC1's two gammas pre-shard into two independently stealable
            # tasks; single-valued members stay whole.
            assert "figC1-sample-size@0" in plan_ids
            assert "figC1-sample-size@1" in plan_ids
            assert "fig1-variance" in plan_ids
            result = coordinator.run(participate=True, timeout=240)
        for name in suite.names:
            assert _rows(result[name]) == reference[name], name

    def test_distributed_honors_priorities_and_dependencies(self, tmp_path):
        suite = _suite(
            tmp_path / "store",
            priorities={"figC1-sample-size": 10},
            depends_on={"fig2-binomial": ["fig1-variance"]},
        )
        events = []
        with Session.for_suite(suite) as session:
            result = Coordinator(session, suite, poll_seconds=0.05).run(
                progress=lambda event, name, *rest: events.append((event, name)),
            )
        done_order = [name for event, name in events if event == "done"]
        assert done_order[0] == "figC1-sample-size"  # highest priority first
        assert done_order.index("fig1-variance") < done_order.index(
            "fig2-binomial"
        )
        assert result.names == suite.names  # canonical assembly order

    def test_streams_and_assembles_in_canonical_order(self, tmp_path):
        # Each member streams one start and one done under the same
        # index; the streamed results are the ones the suite assembles,
        # in manifest order whatever the completion order.
        suite = _suite(
            tmp_path / "store", priorities={"figC1-sample-size": 10}
        )
        events = []
        with Session.for_suite(suite) as session:
            result = Coordinator(session, suite, poll_seconds=0.05).run(
                progress=lambda *event: events.append(event)
            )
        starts = {
            name: index
            for event, name, index, _, _ in events
            if event == "start"
        }
        streamed = {
            name: (index, done)
            for event, name, index, _, done in events
            if event == "done"
        }
        assert len(events) == 2 * len(suite)
        assert set(starts) == set(streamed) == set(suite.names)
        assert sorted(starts.values()) == list(range(len(suite)))
        assert result.names == suite.names
        assert result.names != [event[1] for event in events if event[0] == "done"]
        for name in suite.names:
            index, done = streamed[name]
            assert index == starts[name], name
            assert _rows(done) == _rows(result[name]), name

    def test_members_finished_together_stream_in_schedule_order(
        self, tmp_path
    ):
        # A watching coordinator that first polls once every task is
        # committed sees all members finished at once; they still stream
        # dependencies first, numbered like the in-process loop.
        suite = _suite(
            tmp_path / "store",
            depends_on={"fig1-variance": ["figC1-sample-size"]},
        )
        order = suite.schedule_order()
        assert order.index("figC1-sample-size") < order.index("fig1-variance")
        events = []
        with Session.for_suite(suite) as session:
            coordinator = Coordinator(session, suite, poll_seconds=0.05)
            coordinator.enqueue()
            stats = Worker(str(tmp_path / "store"), poll_seconds=0.05).run(
                exit_when_done=True, timeout=240
            )
            assert stats.committed == len(suite)
            result = coordinator.run(
                participate=False,
                timeout=60,
                progress=lambda event, name, index, *rest: events.append(
                    (event, name, index)
                ),
            )
        assert events == [
            (event, name, index)
            for index, name in enumerate(order)
            for event in ("start", "done")
        ]
        assert result.names == suite.names

    def test_full_resume_completes_without_any_worker(self, tmp_path):
        # Replayed members resolve from their records at enqueue: a
        # watch-only coordinator with no worker anywhere still finishes.
        suite = _suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            cold = session.run_suite(suite)
        with Session.for_suite(suite) as session:
            coordinator = Coordinator(session, suite, poll_seconds=0.05)
            assert list(coordinator.enqueue(resume=True)) == suite.schedule_order()
            assert coordinator.queue.plan() == []
            resumed = coordinator.run(participate=False, resume=True, timeout=30)
        assert resumed.replayed == suite.names
        for name in suite.names:
            assert _rows(resumed[name]) == _rows(cold[name]), name

    def test_watch_only_run_times_out_and_leaves_a_joinable_queue(
        self, tmp_path
    ):
        # With no worker, a watch-only run gives up at its timeout instead
        # of hanging; the queue stays, so a worker can drain it later and
        # a resuming coordinator assembles the suite from it.
        suite = _suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            coordinator = Coordinator(session, suite, poll_seconds=0.05)
            with pytest.raises(TimeoutError, match="0/3 tasks done"):
                coordinator.run(participate=False, timeout=0.2)
            queue = coordinator.queue
            assert queue.snapshot().pending == {task.id for task in queue.plan()}
            stats = Worker(str(tmp_path / "store"), poll_seconds=0.05).run(
                exit_when_done=True, timeout=240
            )
            assert stats.committed == len(suite)
            joined = Coordinator(session, suite, poll_seconds=0.05).run(
                participate=False, resume=True, timeout=60
            )
        assert joined.names == suite.names
        assert joined.replayed == []

    def test_distributed_resume_replays_like_in_process(self, tmp_path):
        # Priorities make schedule order differ from manifest order; both
        # executors must report a full resume's replays in schedule order.
        suite = _suite(
            tmp_path / "store",
            priorities={"figC1-sample-size": 10, "fig2-binomial": 5},
        )
        with Session.for_suite(suite) as session:
            session.run_suite(suite)
        streams = {}
        for distributed in (False, True):
            events = []

            def progress(*event):
                events.append(event[:4])

            with Session.for_suite(suite) as session:
                if distributed:
                    Coordinator(session, suite, poll_seconds=0.05).run(
                        resume=True, progress=progress
                    )
                else:
                    session.run_suite(suite, resume=True, progress=progress)
            streams[distributed] = events
        assert streams[True] == streams[False] == [
            ("replay", "figC1-sample-size", 0, 3),
            ("replay", "fig2-binomial", 1, 3),
            ("replay", "fig1-variance", 2, 3),
        ]

    def test_resume_skips_queue_and_restores_native_attributes(self, tmp_path):
        # Cold (raw pickles round-trip through the queue's
        # commit/load_raw path), then resume.
        suite = _suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            cold = Coordinator(session, suite, poll_seconds=0.05).run()
        with Session.for_suite(suite) as session:
            resumed = Coordinator(session, suite, poll_seconds=0.05).run(
                resume=True
            )
        assert resumed.replayed == suite.names
        for name in suite.names:
            assert _rows(resumed[name]) == _rows(cold[name]), name
        # Full fidelity: the variance member exposes its native result
        # class (not the rows-only stand-in), so study-specific attributes
        # survive the distributed round-trip.
        assert type(resumed["fig1-variance"].raw).__name__ == "VarianceStudyResult"
        assert resumed["fig1-variance"].raw.decompositions

    def test_watching_coordinator_survives_sibling_destroying_queue(
        self, tmp_path
    ):
        # Two coordinators on one run: the executing one finishes first,
        # mirrors results into completion records and destroys the spent
        # queue; the watching one must assemble the identical result from
        # those records instead of crashing on the vanished directory.
        suite = _suite(tmp_path / "store")
        with Session.for_suite(suite) as watch_session:
            watcher = Coordinator(watch_session, suite, poll_seconds=0.05)
            watcher.enqueue()
            box = {}

            def watch():
                box["result"] = watcher.run(participate=False, timeout=240)

            thread = threading.Thread(target=watch)
            thread.start()
            with Session.for_suite(suite) as run_session:
                runner = Coordinator(run_session, suite, poll_seconds=0.05)
                executed = runner.run(participate=True, timeout=240)
            thread.join(timeout=240)
        assert not thread.is_alive()
        watched = box["result"]
        for name in suite.names:
            assert _rows(watched[name]) == _rows(executed[name]), name

    def test_failed_task_surfaces_with_traceback_pointer(self, tmp_path):
        bad = SuiteSpec(
            name="sched-bad",
            specs=[
                ("ok", MEMBERS[2][1]),
                # n_seeds=0 passes registry validation (it's a valid name)
                # but raises inside the driver — a deterministic failure.
                ("boom", MEMBERS[0][1].with_params(n_seeds=0)),
            ],
            cache_dir=str(tmp_path / "store"),
        )
        with Session.for_suite(bad) as session:
            coordinator = Coordinator(session, bad, poll_seconds=0.05)
            with pytest.raises(RuntimeError, match="boom"):
                coordinator.run()

    @pytest.mark.skipif(os.name != "posix", reason="SIGKILL semantics")
    def test_sigkilled_worker_tasks_are_stolen_and_completed(
        self, tmp_path, reference_rows
    ):
        reference = reference_rows
        suite = _suite(tmp_path / "store")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.abspath("src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        with Session.for_suite(suite) as session:
            coordinator = Coordinator(
                session,
                suite,
                lease_seconds=1.0,
                poll_seconds=0.05,
            )
            coordinator.enqueue()
            victim = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    str(tmp_path / "store"),
                    "--lease-seconds",
                    "1",
                ],
                env=env,
                stderr=subprocess.DEVNULL,
            )
            try:
                deadline = time.time() + 120
                queue = coordinator.queue
                while time.time() < deadline and not queue.snapshot().running:
                    time.sleep(0.05)
                assert queue.snapshot().running, "victim never claimed a task"
            finally:
                victim.kill()
                victim.wait()
            stolen_from = set(queue.snapshot().running)
            result = coordinator.run(participate=True, timeout=240)
        assert stolen_from, "nothing was leased when the victim died"
        for name in suite.names:
            assert _rows(result[name]) == reference[name], name
        # The assembled run mirrored its results into completion records
        # and destroyed its spent queue directory.
        assert not coordinator.queue.exists()
        records = tmp_path / "store" / "suites" / suite.name
        for name in suite.names:
            assert (records / f"{name}.json").exists()


# ----------------------------------------------------------------------
# Worker lifecycle: retry classification and progress-coupled leases
# ----------------------------------------------------------------------
class _FlakySession:
    """Session stand-in that fails the first N runs, then delegates.

    ``close`` is a no-op: the inner session's owner closes it (same
    contract as a Worker's injected session).
    """

    def __init__(self, inner, error, n_failures=1):
        self.inner = inner
        self.error = error
        self.failures_left = n_failures

    def run(self, spec, **kwargs):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise self.error
        return self.inner.run(spec, **kwargs)

    def close(self):
        pass


def _single_task_queue(store, name, **kwargs):
    suite = SuiteSpec(name=name, specs=[("m", ANALYTIC)], cache_dir=str(store))
    queue = TaskQueue.for_suite(str(store), name, **kwargs)
    queue.create(
        suite, [TaskRecord(id="m", member="m", spec=ANALYTIC, index=0)]
    )
    return queue


@pytest.mark.slow
class TestWorkerLifecycle:
    def test_transient_error_completes_on_a_later_attempt(self, tmp_path):
        # Acceptance: an OSError on attempt 1 must not park the task —
        # it re-enqueues and a later attempt commits the real result.
        store = tmp_path / "store"
        queue = _single_task_queue(store, "flaky")
        with Session(cache_dir=str(store)) as session:
            worker = Worker(
                str(store),
                poll_seconds=0.01,
                session=_FlakySession(session, OSError("synthetic blip")),
            )
            stats = worker.run(exit_when_done=True, timeout=240)
        assert stats.retried == 1 and stats.committed == 1
        assert stats.failed == 0
        state = queue.snapshot(detail=True)
        assert state.done == {"m"} and state.attempts["m"] == 1
        assert queue.load_record("m") is not None

    def test_deterministic_error_parks_exactly_once(self, tmp_path):
        # Acceptance: a deterministic failure parks on the first attempt
        # (re-running would raise identically) with attempts recorded.
        store = tmp_path / "store"
        queue = _single_task_queue(store, "doomed")
        with Session(cache_dir=str(store)) as session:
            worker = Worker(
                str(store),
                poll_seconds=0.01,
                session=_FlakySession(
                    session, ValueError("bad config"), n_failures=10
                ),
            )
            stats = worker.run(exit_when_done=True, timeout=240)
        assert stats.failed == 1 and stats.retried == 0
        assert stats.committed == 0
        state = queue.snapshot(detail=True)
        assert state.failed == {"m"} and state.attempts["m"] == 1
        assert "bad config" in queue.load_error("m")

    def test_transient_budget_exhaustion_parks_with_full_history(self, tmp_path):
        store = tmp_path / "store"
        queue = _single_task_queue(
            store, "hopeless", max_attempts=2
        )
        with Session(cache_dir=str(store)) as session:
            worker = Worker(
                str(store),
                max_attempts=2,
                poll_seconds=0.01,
                session=_FlakySession(
                    session, OSError("still down"), n_failures=10
                ),
            )
            stats = worker.run(exit_when_done=True, timeout=240)
        assert stats.retried == 1 and stats.failed == 1
        state = queue.snapshot(detail=True)
        assert state.failed == {"m"} and state.attempts["m"] == 2
        assert "still down" in queue.load_error("m")

    def test_stalled_task_loses_lease_and_is_stolen_by_healthy_worker(self, tmp_path):
        # The progress-coupled heartbeat: a worker whose study hangs
        # (alive process, zero progress ticks) stops renewing its lease,
        # a healthy worker steals and completes the task, and the hung
        # worker's eventual outcome is discarded as lost — not committed,
        # not failed.
        store = tmp_path / "store"
        queue = _single_task_queue(
            store, "stall", lease_seconds=0.4
        )
        release = threading.Event()
        claimed = threading.Event()

        class _HangingSession:
            def run(self, spec, **kwargs):
                claimed.set()
                # Blocks without ever emitting a progress tick.
                if not release.wait(timeout=240):
                    raise RuntimeError("never released")
                raise OSError("aborted after stall")

            def close(self):
                pass

        hung = Worker(
            str(store),
            lease_seconds=0.4,
            stall_seconds=0.2,
            poll_seconds=0.01,
            worker_id="hung",
            session=_HangingSession(),
        )
        hung_thread = threading.Thread(target=hung.step)
        hung_thread.start()
        try:
            assert claimed.wait(timeout=60), "hung worker never claimed"
            with Session(cache_dir=str(store)) as session:
                healthy = Worker(
                    str(store),
                    lease_seconds=0.4,
                    poll_seconds=0.02,
                    worker_id="healthy",
                    session=session,
                )
                healthy_stats = healthy.run(exit_when_done=True, timeout=240)
        finally:
            release.set()
            hung_thread.join(timeout=60)
        assert not hung_thread.is_alive()
        assert healthy_stats.stolen == 1 and healthy_stats.committed == 1
        assert hung.stats.lost == 1
        assert hung.stats.failed == 0 and hung.stats.committed == 0
        assert queue.snapshot().done == {"m"}
        assert queue.load_record("m") is not None


class _Driven:
    """What a patched ``Coordinator.run`` returns: enough for ``repro
    suite`` to print and for a service job to finish."""

    def summary(self):
        return "driven"


# ----------------------------------------------------------------------
# Worker CLI
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestWorkerCLI:
    def test_worker_drains_an_enqueued_suite(self, tmp_path, capsys):
        suite = _suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            coordinator = Coordinator(session, suite, poll_seconds=0.05)
            coordinator.enqueue()
            assert (
                main(
                    [
                        "worker",
                        str(tmp_path / "store"),
                        "--exit-when-done",
                        "--timeout",
                        "240",
                    ]
                )
                == 0
            )
            err = capsys.readouterr().err
            assert "committed 3 task(s)" in err
            result = coordinator.run(participate=False, timeout=60)
        assert result.names == suite.names

    def test_worker_rejects_missing_cache_dir(self, tmp_path, capsys):
        assert main(["worker", str(tmp_path / "nope")]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_suite_scheduler_flags_require_distributed(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(_suite(tmp_path / "store").to_json())
        assert main(["suite", str(manifest), "--shard-members"]) == 2
        assert "--shard-members requires --distributed" in capsys.readouterr().err
        assert main(["suite", str(manifest), "--lease-seconds", "5"]) == 2
        assert "--lease-seconds requires --distributed" in capsys.readouterr().err
        assert main(["suite", str(manifest), "--max-attempts", "2"]) == 2
        assert "--max-attempts requires --distributed" in capsys.readouterr().err
        assert main(["suite", str(manifest), "--stall-seconds", "5"]) == 2
        assert "--stall-seconds requires --distributed" in capsys.readouterr().err
        assert (
            main(
                [
                    "suite",
                    str(manifest),
                    "--distributed",
                    "--lease-seconds",
                    "0",
                ]
            )
            == 2
        )
        assert "must be positive" in capsys.readouterr().err
        assert (
            main(
                [
                    "suite",
                    str(manifest),
                    "--distributed",
                    "--max-attempts",
                    "0",
                ]
            )
            == 2
        )
        assert "--max-attempts must be at least 1" in capsys.readouterr().err

    def test_suite_distributed_flags_reach_the_coordinator(
        self, tmp_path, monkeypatch
    ):
        """``repro suite --distributed`` builds the Coordinator from the
        flags the user set; a flag left unset keeps its default."""
        built = []

        def record_run(self, *, participate=True, **kwargs):
            built.append(
                (
                    self.shard_members,
                    self.queue.lease_seconds,
                    self.queue.max_attempts,
                    self.stall_seconds,
                    self.poll_seconds,
                    participate,
                )
            )
            return _Driven()

        monkeypatch.setattr(Coordinator, "run", record_run)
        manifest = tmp_path / "m.json"
        manifest.write_text(_suite(tmp_path / "store").to_json())
        flags = [
            "--shard-members",
            "--lease-seconds", "5",
            "--max-attempts", "2",
            "--stall-seconds", "7",
        ]
        assert main(["suite", str(manifest), "--distributed", *flags]) == 0
        assert main(["suite", str(manifest), "--distributed"]) == 0
        poll = Coordinator.POLL_SECONDS
        assert built == [
            (True, 5.0, 2, 7.0, poll, True),
            (False, 30.0, DEFAULT_MAX_ATTEMPTS, None, poll, True),
        ]

    def test_queue_status_reports_every_suite(self, tmp_path, capsys):
        store = tmp_path / "store"
        for name in ("alpha", "beta"):
            _single_task_queue(store, name)
        claimer = TaskQueue.for_suite(str(store), "alpha")
        assert claimer.claim(claimer.plan()[0], worker="w9") is not None
        assert main(["queue", str(store), "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        by_suite = {report["suite"]: report for report in reports}
        assert set(by_suite) == {"alpha", "beta"}
        assert by_suite["alpha"]["running"] == 1
        assert by_suite["alpha"]["leases"][0]["worker"] == "w9"
        assert by_suite["beta"]["pending"] == 1 and by_suite["beta"]["tasks"] == 1
        # Human-readable rendering carries the same facts.
        assert main(["queue", str(store)]) == 0
        out = capsys.readouterr().out
        assert "alpha — in progress" in out and "beta — in progress" in out
        assert "running m" in out and "worker=w9" in out
        # The filter narrows by suite.
        assert main(["queue", str(store), "--suite", "beta", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [report["suite"] for report in reports] == ["beta"]

    def test_queue_status_shows_failures_with_attempts(
        self, tmp_path, capsys, monkeypatch
    ):
        store = tmp_path / "store"
        monkeypatch.setattr(repro.sched.queue, "RETRY_BASE_SECONDS", 0.0)
        queue = _single_task_queue(store, "bad", max_attempts=2)
        claim = queue.claim(queue.plan()[0], worker="w")
        assert queue.fail(claim, "OSError: blip", transient=True) == "retried"
        claim = queue.claim(queue.plan()[0], worker="w")
        assert queue.fail(claim, "OSError: blip", transient=True) == "failed"
        assert main(["queue", str(store), "--json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["failed"] == 1 and report["complete"] is True
        (failure,) = report["failed_tasks"]
        assert failure["attempts"] == 2
        assert failure["error"].startswith("OSError")
        assert main(["queue", str(store)]) == 0
        assert "attempts=2" in capsys.readouterr().out

    def test_queue_rejects_missing_cache_dir(self, tmp_path, capsys):
        assert main(["queue", str(tmp_path / "nope")]) == 2
        assert "no cache directory" in capsys.readouterr().err


class TestPollInterval:
    """A zero poll interval would spin on the queue and a negative one
    fails at the first idle sleep, so both are rejected up front."""

    @pytest.mark.parametrize("poll_seconds", [0, -1.0])
    def test_worker_rejects_non_positive_poll(self, tmp_path, poll_seconds):
        with pytest.raises(ValueError, match="poll_seconds must be positive"):
            Worker(str(tmp_path), poll_seconds=poll_seconds)

    @pytest.mark.parametrize("poll_seconds", [0, -1.0])
    def test_coordinator_rejects_non_positive_poll(self, tmp_path, poll_seconds):
        suite = _suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            with pytest.raises(ValueError, match="poll_seconds must be positive"):
                Coordinator(session, suite, poll_seconds=poll_seconds)

    def test_callers_naming_no_interval_poll_at_the_coordinator_default(
        self, tmp_path, monkeypatch
    ):
        """The service's watch-only suite jobs and ``repro suite
        --distributed`` name no interval, so they poll at the one default
        ``Coordinator`` declares: a finished suite waits at most 50 ms to
        be seen."""
        from repro.serve.jobs import JobRegistry

        polled = []

        def record_poll(self, *, participate=True, **kwargs):
            polled.append((participate, self.poll_seconds))
            return _Driven()

        monkeypatch.setattr(Coordinator, "run", record_poll)
        suite = _suite(tmp_path / "store")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(suite.to_json())
        assert main(["suite", str(manifest), "--distributed"]) == 0
        with Session.for_suite(suite) as session:
            registry = JobRegistry(session, participate=False)
            job = registry.submit_suite(suite.to_dict())
            deadline = time.monotonic() + 60
            while not job.terminal and time.monotonic() < deadline:
                job.wait_events(len(job.events), timeout=1.0)
            registry.close()
        assert job.state == "done", job.error
        assert polled == [(True, 0.05), (False, 0.05)]
        assert Coordinator.POLL_SECONDS == 0.05


# ----------------------------------------------------------------------
# Shard affinity: workers prefer the member they last committed
# ----------------------------------------------------------------------
def _sharded_tasks():
    """Two members, two shards each, interleaved in plan order."""
    return [
        TaskRecord(
            id=f"{member}@{k}",
            member=member,
            spec=ANALYTIC,
            shard_key=f"k={k}",
            index=index,
        )
        for index, (member, k) in enumerate(
            [("a", 0), ("b", 0), ("a", 1), ("b", 1)]
        )
    ]


class TestShardAffinity:
    def test_prefer_member_front_runs_its_shards(self, tmp_path):
        queue = _make_queue(tmp_path)
        queue.create(
            SuiteSpec(name="q", specs=[("a", ANALYTIC), ("b", ANALYTIC)]),
            _sharded_tasks(),
        )
        # No preference: plan order.
        assert [t.id for t in queue.claimable()] == ["a@0", "b@0", "a@1", "b@1"]
        # Preference pulls the member's shards to the front; plan order
        # still holds within the preferred group and within the rest.
        assert [t.id for t in queue.claimable(prefer_member="b")] == [
            "b@0", "b@1", "a@0", "a@1",
        ]
        assert [t.id for t in queue.claimable(prefer_member="a")] == [
            "a@0", "a@1", "b@0", "b@1",
        ]

    def test_prefer_member_none_is_the_legacy_order(self, tmp_path):
        queue = _make_queue(tmp_path)
        queue.create(
            SuiteSpec(name="q", specs=[("a", ANALYTIC), ("b", ANALYTIC)]),
            _sharded_tasks(),
        )
        state = queue.snapshot()
        default = [t.id for t in queue.claimable(state)]
        explicit_none = [t.id for t in queue.claimable(state, prefer_member=None)]
        unknown = [t.id for t in queue.claimable(state, prefer_member="ghost")]
        assert default == explicit_none == unknown

    def test_priority_outranks_affinity(self, tmp_path):
        # Affinity is a tie-break *within* a priority tier, never a way to
        # starve higher-priority work.
        queue = _make_queue(tmp_path)
        tasks = [
            TaskRecord(id="cold@0", member="cold", spec=ANALYTIC, index=0),
            TaskRecord(
                id="hot", member="hot", spec=ANALYTIC, priority=5, index=1
            ),
            TaskRecord(id="cold@1", member="cold", spec=ANALYTIC, index=2),
        ]
        queue.create(
            SuiteSpec(name="q", specs=[("cold", ANALYTIC), ("hot", ANALYTIC)]),
            tasks,
        )
        assert [t.id for t in queue.claimable(prefer_member="cold")] == [
            "hot", "cold@0", "cold@1",
        ]

    def test_worker_sticks_to_last_committed_member(self, tmp_path):
        # A worker that just committed a@0 claims a@1 next (sibling shard,
        # warm dataset/cache) even though b@0 precedes it in plan order.
        store = tmp_path / "store"
        suite = SuiteSpec(
            name="aff",
            specs=[("a", ANALYTIC), ("b", ANALYTIC)],
            cache_dir=str(store),
        )
        queue = TaskQueue.for_suite(str(store), "aff")
        queue.create(suite, _sharded_tasks())
        with Session(cache_dir=str(store)) as session:
            worker = Worker(
                str(store),
                poll_seconds=0.01,
                session=session,
            )
            assert worker.step()
            assert worker._last_member[queue.directory] == "a"
            assert worker.step()
        assert queue.snapshot().done == {"a@0", "a@1"}
        assert worker.stats.committed == 2
