"""End-to-end coverage of the HTTP/JSON study service (``repro serve``).

Every test drives a real :class:`~repro.serve.server.StudyServer` over a
real socket (``port=0``, kernel-assigned) with stdlib ``urllib`` as the
client — the same wire a curl user or the dashboard sees.  The core
contract under test: results obtained through the service are
byte-for-byte the rows a direct in-process :class:`Session` run
produces, whether the job ran on the submit pool (studies) or was
drained from the durable queue by an external worker (suites).
"""

import json
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.api import Session, StudySpec, SuiteSpec, get_study, list_studies
from repro.sched import Worker
from repro.serve import StudyServer

from suite_fixtures import canonical_rows as _rows

DEADLINE = 90.0  # generous wall-clock bound for smoke-scale jobs

STUDY = StudySpec(
    study="sample_size", params={"gammas": [0.6, 0.7]}, random_state=3
)

# sample_size is analytic (never touches the measurement cache); the
# variance study fits real estimators, so cache hit/miss counters move —
# what the shared-store test needs to observe.
CACHED_STUDY = StudySpec(
    study="variance",
    params=dict(get_study("variance").smoke_params),
    random_state=3,
)

SUITE = {
    "name": "pair",
    "specs": [
        {
            "name": "sizes",
            "spec": {
                "study": "sample_size",
                "params": {"gammas": [0.6, 0.7]},
                "random_state": 3,
            },
        },
        {
            "name": "noise",
            "spec": {
                "study": "variance",
                "params": dict(get_study("variance").smoke_params),
                "random_state": 3,
            },
        },
    ],
}


@contextmanager
def serving(tmp_path, **config):
    """A live StudyServer on a fresh cache dir; always torn down."""
    cache_dir = str(tmp_path / "cache")
    session = Session(cache_dir=cache_dir)
    server = StudyServer(session, port=0, owns_session=True, **config)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _get(server, path, **kwargs):
    with urllib.request.urlopen(server.url + path, timeout=30, **kwargs) as r:
        return r.status, json.loads(r.read())


def _post(server, path, payload):
    data = (
        payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    )
    request = urllib.request.Request(
        server.url + path, data=data, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _await_terminal(server, job_id, deadline=DEADLINE):
    end = time.time() + deadline
    while time.time() < end:
        _, summary = _get(server, f"/v1/jobs/{job_id}")
        if summary["state"] in ("done", "failed", "cancelled"):
            return summary
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} still {summary['state']!r}")


def _sse_events(server, job_id, headers=None):
    """Read a job's full (terminated) SSE stream into parsed events."""
    request = urllib.request.Request(
        server.url + f"/v1/jobs/{job_id}/events", headers=headers or {}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.headers["Content-Type"] == "text/event-stream"
        body = response.read().decode("utf-8")
    return [
        json.loads(line[len("data: ") :])
        for line in body.splitlines()
        if line.startswith("data: ")
    ]


class TestPlainEndpoints:
    def test_health_names_the_cache_dir(self, tmp_path):
        with serving(tmp_path) as server:
            status, health = _get(server, "/v1/health")
            assert status == 200
            assert health["status"] == "ok"
            assert health["cache_dir"] == server.registry.cache_dir

    def test_studies_catalogue_matches_the_registry(self, tmp_path):
        with serving(tmp_path) as server:
            status, catalogue = _get(server, "/v1/studies")
            assert status == 200
            assert [entry["name"] for entry in catalogue] == list_studies()
            assert all("smoke_params" in entry for entry in catalogue)

    def test_dashboard_is_self_contained_html(self, tmp_path):
        with serving(tmp_path) as server:
            with urllib.request.urlopen(server.url + "/", timeout=30) as r:
                assert r.status == 200
                assert r.headers["Content-Type"].startswith("text/html")
                html = r.read().decode("utf-8")
            assert "<!DOCTYPE html>" in html
            assert "EventSource" in html  # live progress wiring
            assert "src=" not in html  # no external assets

    def test_unknown_paths_and_jobs_are_404(self, tmp_path):
        with serving(tmp_path) as server:
            for path in ("/nope", "/v1/nope", "/v1/jobs/study-99"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(server, path)
                excinfo.value.close()
                assert excinfo.value.code == 404

    def test_queue_endpoint_is_empty_list_when_idle(self, tmp_path):
        with serving(tmp_path) as server:
            assert _get(server, "/v1/queue") == (200, [])


class TestStudyJobs:
    def test_submitted_study_matches_direct_run_bitwise(self, tmp_path):
        with serving(tmp_path) as server:
            status, accepted = _post(server, "/v1/studies", STUDY.to_dict())
            assert status == 202
            summary = _await_terminal(server, accepted["job"])
            assert summary["state"] == "done"
            assert summary["completed"] == summary["total"]
            _, payload = _get(server, f"/v1/jobs/{accepted['job']}/result")
            with Session(cache_dir=str(tmp_path / "direct")) as direct:
                reference = json.loads(direct.run(STUDY).to_json())
            assert _rows(payload["result"]["rows"]) == _rows(
                reference["rows"]
            )

    def test_progress_events_cover_every_shard_in_order(self, tmp_path):
        with serving(tmp_path) as server:
            _, accepted = _post(server, "/v1/studies", STUDY.to_dict())
            _await_terminal(server, accepted["job"])
            events = _sse_events(server, accepted["job"])
            # Sequence numbers are the append order: strictly consecutive.
            assert [event["seq"] for event in events] == list(
                range(len(events))
            )
            starts = [e for e in events if e["event"] == "start"]
            dones = [e for e in events if e["event"] == "done"]
            total = starts[0]["total"]
            assert len(starts) == len(dones) == total >= 1
            # Every shard's start precedes its done; dones carry timing.
            done_seq = {e["name"]: e["seq"] for e in dones}
            for start in starts:
                assert start["seq"] < done_seq[start["name"]]
            assert all(e["elapsed_seconds"] >= 0 for e in dones)
            assert events[-1]["event"] == "end"
            assert events[-1]["state"] == "done"

    def test_sse_resumes_from_last_event_id(self, tmp_path):
        with serving(tmp_path) as server:
            _, accepted = _post(server, "/v1/studies", STUDY.to_dict())
            _await_terminal(server, accepted["job"])
            full = _sse_events(server, accepted["job"])
            tail = _sse_events(
                server, accepted["job"], headers={"Last-Event-ID": "1"}
            )
            assert tail == full[2:]

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"study": "nope", "params": {}}, "unknown study"),
            (
                {"study": "variance", "params": {"bogus": 1}},
                "valid parameters",
            ),
            ({"study": "variance", "jobs": 4}, "unknown StudySpec fields"),
            ([1, 2, 3], "JSON object"),
            (b"{not json", "not valid JSON"),
        ],
    )
    def test_malformed_specs_are_400_with_the_cause(
        self, tmp_path, payload, fragment
    ):
        with serving(tmp_path) as server:
            status, body = _post(server, "/v1/studies", payload)
            assert status == 400
            assert fragment in body["error"]
            # Nothing half-registered: the job list stays empty.
            assert _get(server, "/v1/jobs") == (200, [])

    def test_concurrent_submissions_share_one_store(self, tmp_path):
        with serving(tmp_path) as server:
            jobs = []
            with_threads = []

            def submit():
                _, accepted = _post(
                    server, "/v1/studies", CACHED_STUDY.to_dict()
                )
                jobs.append(accepted["job"])

            for _ in range(2):
                thread = threading.Thread(target=submit)
                thread.start()
                with_threads.append(thread)
            for thread in with_threads:
                thread.join(timeout=30)
            assert len(jobs) == 2 and jobs[0] != jobs[1]
            payloads = []
            for job_id in jobs:
                assert _await_terminal(server, job_id)["state"] == "done"
                payloads.append(_get(server, f"/v1/jobs/{job_id}/result")[1])
            assert _rows(payloads[0]["result"]["rows"]) == _rows(
                payloads[1]["result"]["rows"]
            )
            # A third, sequential submission replays purely from the
            # shared store the first two populated.
            _, accepted = _post(
                server, "/v1/studies", CACHED_STUDY.to_dict()
            )
            _await_terminal(server, accepted["job"])
            _, replay = _get(server, f"/v1/jobs/{accepted['job']}/result")
            stats = replay["result"]["cache_stats"]
            assert stats["misses"] == 0 and stats["hits"] > 0

    def test_result_of_a_running_job_is_202_summary(self, tmp_path):
        with serving(tmp_path) as server:
            _, accepted = _post(server, "/v1/studies", STUDY.to_dict())
            # Immediately after submit the job may already be done on a
            # fast machine; accept either, but never an error.
            status, body = _get(
                server, f"/v1/jobs/{accepted['job']}/result"
            )
            assert status in (200, 202)
            assert body["id"] == accepted["job"]
            _await_terminal(server, accepted["job"])


@pytest.mark.slow
class TestSuiteJobs:
    def test_external_worker_drains_to_bitwise_identical_rows(
        self, tmp_path
    ):
        # The service only watches (participate=False): completion proves
        # the external worker really executed every task.
        with serving(tmp_path, participate=False) as server:
            status, accepted = _post(server, "/v1/suites", SUITE)
            assert status == 202 and accepted["kind"] == "suite"
            worker = Worker(server.registry.cache_dir, poll_seconds=0.05)
            stats = worker.run(exit_when_done=True, timeout=DEADLINE)
            assert stats.committed == len(SUITE["specs"])
            summary = _await_terminal(server, accepted["job"])
            assert summary["state"] == "done"
            _, payload = _get(server, f"/v1/jobs/{accepted['job']}/result")
            served = {
                member["name"]: _rows(member["rows"])
                for member in payload["result"]["results"]
            }
            suite = SuiteSpec.from_dict(SUITE).replace(
                cache_dir=str(tmp_path / "direct")
            )
            with Session.for_suite(suite) as direct:
                reference = json.loads(direct.run_suite(suite).to_json())
            expected = {
                member["name"]: _rows(member["rows"])
                for member in reference["results"]
            }
            assert served == expected

    def test_events_stream_one_done_per_member_in_completion_order(
        self, tmp_path
    ):
        with serving(tmp_path) as server:  # coordinator participates
            _, accepted = _post(server, "/v1/suites", SUITE)
            _await_terminal(server, accepted["job"])
            events = _sse_events(server, accepted["job"])
            dones = [
                e for e in events if e["event"] in ("done", "replay")
            ]
            names = {m["name"] for m in SUITE["specs"]}
            assert {e["name"] for e in dones} == names
            assert len(dones) == len(names)  # exactly one per member
            # Stream order is append order: seq strictly increasing.
            assert [e["seq"] for e in dones] == sorted(
                e["seq"] for e in dones
            )
            assert events[-1]["event"] == "end"

    def test_results_by_scope_serves_completion_records(self, tmp_path):
        with serving(tmp_path) as server:
            _, accepted = _post(server, "/v1/suites", SUITE)
            _await_terminal(server, accepted["job"])
            status, listing = _get(server, "/v1/results/pair")
            assert status == 200
            assert listing["members"] == sorted(
                m["name"] for m in SUITE["specs"]
            )
            assert listing["manifest"] is True
            status, record = _get(server, "/v1/results/pair/sizes")
            assert status == 200
            assert record["record"] == 1 and record["rows"]
            status, manifest = _get(server, "/v1/results/pair/manifest")
            assert {m["name"] for m in manifest["results"]} == {
                m["name"] for m in SUITE["specs"]
            }

    def test_unknown_scopes_are_404(self, tmp_path):
        with serving(tmp_path) as server:
            for path in (
                "/v1/results/absent",
                "/v1/results/../etc",
                "/v1/results/pair/absent",
                "/v1/reports/absent",
                "/v1/reports/../etc",
            ):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(server, path)
                excinfo.value.close()
                assert excinfo.value.code == 404

    def test_undecodable_member_record_is_404(self, tmp_path):
        records = tmp_path / "cache" / "suites" / "pair"
        records.mkdir(parents=True)
        (records / "sizes.json").write_bytes(b"\xff\xfe\x00\x81 not utf-8")
        with serving(tmp_path) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, "/v1/results/pair/sizes")
            assert excinfo.value.code == 404
            assert json.loads(excinfo.value.read()) == {
                "error": "no cached result for member 'sizes' of suite 'pair'"
            }

    def test_reports_endpoint_matches_offline_builder(self, tmp_path):
        """GET /v1/reports/<suite> is the same payload ``repro report``
        builds offline from the cache — records in, zero re-execution."""
        from repro.report import build_suite_report

        with serving(tmp_path) as server:
            _, accepted = _post(server, "/v1/suites", SUITE)
            _await_terminal(server, accepted["job"])
            status, payload = _get(server, "/v1/reports/pair")
            assert status == 200
            assert payload["suite"] == "pair"
            assert [m["name"] for m in payload["members"]] == [
                m["name"] for m in SUITE["specs"]
            ]
            offline = build_suite_report(server.registry.cache_dir, "pair")
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                offline, sort_keys=True
            )

    def test_malformed_suite_is_400_with_positional_error(self, tmp_path):
        with serving(tmp_path) as server:
            bad = {
                "name": "broken",
                "specs": [
                    {
                        "name": "ok",
                        "spec": {"study": "sample_size", "params": {}},
                    },
                    {"name": "sick", "spec": {"study": "nope", "params": {}}},
                ],
            }
            status, body = _post(server, "/v1/suites", bad)
            assert status == 400
            assert "suite spec 'sick'" in body["error"]
            assert "unknown study 'nope'" in body["error"]
            assert _get(server, "/v1/jobs") == (200, [])

    def test_client_supplied_cache_dir_is_overridden(self, tmp_path):
        elsewhere = str(tmp_path / "elsewhere")
        hijack = dict(SUITE, cache_dir=elsewhere)
        with serving(tmp_path) as server:
            _, accepted = _post(server, "/v1/suites", hijack)
            summary = _await_terminal(server, accepted["job"])
            assert summary["state"] == "done"
            # Records landed in the service's store, not the client's path.
            status, listing = _get(server, "/v1/results/pair")
            assert status == 200 and listing["members"]
            import os

            assert not os.path.exists(elsewhere)

    def test_client_named_cache_path_is_400_and_never_created(self, tmp_path):
        """A spec's ``cache`` joins or skips the service's store; a path
        there would have the service write, and later unpickle,
        measurements wherever the client chose."""
        import os

        elsewhere = str(tmp_path / "elsewhere")
        study = dict(CACHED_STUDY.to_dict(), cache=elsewhere)
        sizes, noise = SUITE["specs"]
        member = dict(noise, spec=dict(noise["spec"], cache=elsewhere))
        suite = dict(SUITE, specs=[sizes, member])
        with serving(tmp_path) as server:
            for path, payload in (("/v1/studies", study), ("/v1/suites", suite)):
                status, body = _post(server, path, payload)
                assert status == 400, (path, body)
                assert "cache must be a bool" in body["error"]
            assert _get(server, "/v1/jobs") == (200, [])
        assert not os.path.exists(elsewhere)


class TestShutdown:
    def test_graceful_shutdown_cancels_live_jobs_and_ends_streams(
        self, tmp_path
    ):
        # Watch-only with no worker: the suite job can never finish on
        # its own, so it is reliably live when the server goes down.
        cache_dir = str(tmp_path / "cache")
        session = Session(cache_dir=cache_dir)
        server = StudyServer(
            session, port=0, owns_session=True, participate=False
        )
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        _, accepted = _post(server, "/v1/suites", SUITE)
        job = server.registry.get(accepted["job"])
        assert not job.terminal

        events = []
        streamed = threading.Event()

        def stream():
            request = urllib.request.Request(
                server.url + f"/v1/jobs/{job.id}/events"
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                body = response.read().decode("utf-8")  # until stream ends
            events.extend(
                json.loads(line[len("data: ") :])
                for line in body.splitlines()
                if line.startswith("data: ")
            )
            streamed.set()

        reader = threading.Thread(target=stream)
        reader.start()
        time.sleep(0.2)  # let the stream attach before the shutdown
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert streamed.wait(timeout=30), "SSE stream never terminated"
        reader.join(timeout=10)
        assert job.state == "cancelled"
        assert events and events[-1]["event"] == "end"
        assert events[-1]["state"] == "cancelled"
        # The durable queue survives shutdown: a worker fleet (or a
        # resubmission with resume) can still finish the suite.
        from repro.sched import TaskQueue

        survivors = TaskQueue.discover(cache_dir)
        assert [queue.suite_name for queue in survivors] == ["pair"]

    def test_submissions_after_close_are_rejected(self, tmp_path):
        with serving(tmp_path) as server:
            server.registry.close()
            status, body = _post(server, "/v1/studies", STUDY.to_dict())
            assert status == 503
            assert "shutting down" in body["error"]
