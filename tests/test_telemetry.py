"""The unified telemetry layer: registry, tracer, parity, endpoints.

The load-bearing contract under test is the *pure side channel*
guarantee — study results are byte-for-byte identical with telemetry
enabled or disabled, across the in-process, suite, and distributed
paths — plus the exposition/stitching mechanics: Prometheus text
rendering, deterministic suite trace roots that reassemble one span
tree across queue boundaries, the ``/metrics`` + ``/v1/telemetry/spans``
endpoints, and the ``repro trace`` CLI.
"""

import json
import math
import re
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.api import Session, StudySpec, SuiteSpec, get_study
from repro.sched import Coordinator, TaskQueue, TaskRecord, Worker
from repro.serve import StudyServer
from repro.serve.jobs import Job, JobRegistry
from repro.telemetry import (
    MetricsRegistry,
    enabled,
    set_enabled,
    suite_trace_context,
    trace,
)
from repro.telemetry.instruments import WORKER_EVENTS
from repro.telemetry.log import get_logger, resolve_level, setup_logging
from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.tracing import (
    Tracer,
    build_span_tree,
    filter_suite,
    load_spans,
    phase_aggregates,
    render_span_tree,
)

from suite_fixtures import canonical_rows as _rows
from suite_fixtures import make_suite

DEADLINE = 90.0

ANALYTIC = StudySpec(
    study="sample_size", params={"gammas": [0.6, 0.7]}, random_state=3
)
CACHED = StudySpec(
    study="variance",
    params=dict(get_study("variance").smoke_params),
    random_state=3,
)

#: Two-member parity suite: one analytic member, one that fits real
#: estimators through the measurement cache and object store.
PARITY_MEMBERS = [("sizes", ANALYTIC), ("noise", CACHED)]


@pytest.fixture(autouse=True)
def _telemetry_on():
    """Every test starts (and leaves the process) with telemetry on."""
    set_enabled(True)
    yield
    set_enabled(True)
    trace.detach_sink()


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_counts_and_renders_total_suffix(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_events", "Events.")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3
        text = registry.render()
        assert "# HELP repro_test_events Events." in text
        assert "# TYPE repro_test_events counter" in text
        assert "repro_test_events_total 3" in text

    def test_counter_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("repro_test_neg")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_counter_renders_escaped_sorted_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "repro_test_lbl", labelnames=("kind", "who")
        )
        counter.labels(kind='a"b', who="x\ny").inc()
        text = registry.render()
        assert 'repro_test_lbl_total{kind="a\\"b",who="x\\ny"} 1' in text

    def test_label_schema_mismatch_raises(self):
        counter = MetricsRegistry().counter(
            "repro_test_schema", labelnames=("kind",)
        )
        with pytest.raises(ValueError):
            counter.labels(other="x")

    def test_reregistering_with_different_schema_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_re", labelnames=("a",))
        assert registry.counter("repro_test_re", labelnames=("a",)) is not None
        with pytest.raises(ValueError):
            registry.counter("repro_test_re", labelnames=("b",))
        with pytest.raises(ValueError):
            registry.gauge("repro_test_re", labelnames=("a",))

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("repro_test_depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6

    def test_histogram_snapshot_is_cumulative(self):
        hist = MetricsRegistry().histogram(
            "repro_test_hist", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)
        assert snap["buckets"][0.1] == 1
        assert snap["buckets"][1.0] == 3
        assert snap["buckets"][10.0] == 4
        assert snap["buckets"][math.inf] == 5

    def test_histogram_render_has_inf_bucket_and_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_test_h2", buckets=(1.0,))
        hist.observe(0.5)
        hist.observe(2.0)
        text = registry.render()
        assert 'repro_test_h2_bucket{le="1"} 1' in text
        assert 'repro_test_h2_bucket{le="+Inf"} 2' in text
        assert "repro_test_h2_count 2" in text
        assert "repro_test_h2_sum 2.5" in text

    def test_exposition_lines_are_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_c", "help", labelnames=("k",)).labels(
            k="v"
        ).inc()
        registry.gauge("repro_test_g").set(1.5)
        registry.histogram("repro_test_h", buckets=(1.0,)).observe(0.2)
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?\d+(\.\d+)?([eE]-?\d+)?|\+Inf|-Inf|NaN)$"
        )
        text = registry.render()
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*", line)
            else:
                assert sample.match(line), line

    def test_concurrent_increments_are_exact(self):
        counter = MetricsRegistry().counter(
            "repro_test_race", labelnames=("t",)
        )
        threads = 8
        per_thread = 2000

        def work(index):
            child = counter.labels(t=str(index % 2))
            for _ in range(per_thread):
                child.inc()

        pool = [
            threading.Thread(target=work, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        total = counter.value(t="0") + counter.value(t="1")
        assert total == threads * per_thread

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.floats(
                min_value=0.0, max_value=1e6, allow_nan=False,
                allow_infinity=False,
            ),
            max_size=60,
        )
    )
    def test_histogram_bucket_properties(self, values):
        hist = Histogram("repro_test_prop", buckets=(0.001, 0.1, 1.0, 100.0))
        for value in values:
            hist.observe(value)
        snap = hist.snapshot()
        counts = [snap["buckets"][b] for b in (*hist.buckets, math.inf)]
        # Cumulative counts are monotone and end at the observation count.
        assert counts == sorted(counts)
        assert counts[-1] == len(values) == snap["count"]
        assert snap["sum"] == pytest.approx(sum(values), rel=1e-9, abs=1e-9)
        # Each bound's cumulative count matches a direct recount.
        for bound in hist.buckets:
            assert snap["buckets"][bound] == sum(
                1 for v in values if v <= bound
            )

    def test_disabled_telemetry_freezes_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_off")
        gauge = registry.gauge("repro_test_off_g")
        hist = registry.histogram("repro_test_off_h", buckets=(1.0,))
        set_enabled(False)
        try:
            assert not enabled()
            counter.inc()
            gauge.set(9)
            hist.observe(0.5)
        finally:
            set_enabled(True)
        assert counter.value() == 0
        assert gauge.value() == 0
        assert hist.snapshot()["count"] == 0

    def test_worker_events_keep_one_series_per_event(self, tmp_path):
        # Each process has its own registry, so a per-worker label would
        # add series without adding information: two workers in one
        # process share each event's series.
        store = tmp_path / "store"
        members = ("a", "b")
        suite = SuiteSpec(
            name="events",
            specs=[(member, ANALYTIC) for member in members],
            cache_dir=str(store),
        )
        queue = TaskQueue.for_suite(str(store), suite.name)
        queue.create(
            suite,
            [
                TaskRecord(id=member, member=member, spec=ANALYTIC, index=index)
                for index, member in enumerate(members)
            ],
        )
        before = WORKER_EVENTS.value(event="commit")
        for worker_id in ("w1", "w2"):
            worker = Worker(str(store), worker_id=worker_id, poll_seconds=0.01)
            try:
                assert worker.step()
            finally:
                worker.close()
        assert WORKER_EVENTS.value(event="commit") == before + 2
        series = [
            line
            for line in WORKER_EVENTS.render().splitlines()
            if not line.startswith("#")
        ]
        for event in ("claim", "commit"):
            assert len([line for line in series if f'event="{event}"' in line]) == 1


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_links_parent_ids_per_thread(self):
        tracer = Tracer()
        with tracer.span("suite/s") as outer:
            with tracer.span("member/m") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["member/m", "suite/s"]

    def test_exception_marks_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("task/t"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span["status"] == "error"
        assert span["attrs"]["error"] == "RuntimeError"

    def test_ring_is_bounded(self):
        tracer = Tracer(capacity=3)
        for index in range(10):
            with tracer.span(f"study/{index}"):
                pass
        names = [s["name"] for s in tracer.spans()]
        assert names == ["study/7", "study/8", "study/9"]

    def test_pinned_context_and_remote_parent(self):
        tracer = Tracer()
        root = suite_trace_context("fig")
        with tracer.span("suite/fig", context=root):
            pass
        with tracer.span("task/t", parent=root):
            pass
        by_name = {s["name"]: s for s in tracer.spans()}
        assert by_name["suite/fig"]["span_id"] == root.span_id
        assert by_name["task/t"]["parent_id"] == root.span_id
        assert by_name["task/t"]["trace_id"] == root.trace_id

    def test_suite_trace_context_is_deterministic(self):
        a, b = suite_trace_context("fig"), suite_trace_context("fig")
        assert (a.trace_id, a.span_id) == (b.trace_id, b.span_id)
        assert suite_trace_context("other").trace_id != a.trace_id

    def test_sink_roundtrip_and_torn_lines(self, tmp_path):
        tracer = Tracer()
        path = tracer.attach_sink(str(tmp_path))
        with tracer.span("study/x", rows=3):
            pass
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')  # worker killed mid-write
        spans = load_spans(str(tmp_path))
        assert len(spans) == 1
        assert spans[0]["name"] == "study/x"
        assert spans[0]["attrs"]["rows"] == 3

    def test_disabled_span_is_inert(self):
        tracer = Tracer()
        set_enabled(False)
        try:
            with tracer.span("study/x") as span:
                span.status = "error"  # absorbed, never raises
                span.set_attr("k", "v")
                assert span.context is None
        finally:
            set_enabled(True)
        assert tracer.spans() == []

    def test_tree_dedupes_span_ids_and_promotes_orphans(self):
        root = {"span_id": "r", "parent_id": None, "name": "suite/s",
                "start": 1.0, "duration": 1.0, "status": "ok", "attrs": {}}
        resumed_root = dict(root, duration=2.0)
        child = {"span_id": "c", "parent_id": "r", "name": "task/t",
                 "start": 1.5, "duration": 0.5, "status": "ok", "attrs": {}}
        orphan = {"span_id": "o", "parent_id": "gone", "name": "study/u",
                  "start": 2.0, "duration": 0.1, "status": "ok", "attrs": {}}
        roots, children = build_span_tree([root, child, orphan, resumed_root])
        assert sorted(r["span_id"] for r in roots) == ["o", "r"]
        assert [c["span_id"] for c in children["r"]] == ["c"]
        by_id = {r["span_id"]: r for r in roots}
        assert by_id["r"]["duration"] == 2.0  # last record wins
        rendered = render_span_tree([root, child, orphan])
        assert "suite/s" in rendered and "└─ task/t" in rendered

    def test_phase_aggregates(self):
        spans = [
            {"name": "task/a", "duration": 1.0, "status": "ok"},
            {"name": "task/b", "duration": 3.0, "status": "error"},
            {"name": "suite/s", "duration": 4.0, "status": "ok"},
        ]
        rows = {r["phase"]: r for r in phase_aggregates(spans)}
        assert rows["task"]["count"] == 2
        assert rows["task"]["errors"] == 1
        assert rows["task"]["mean_seconds"] == pytest.approx(2.0)
        assert rows["task"]["max_seconds"] == pytest.approx(3.0)
        assert rows["suite"]["count"] == 1


# ---------------------------------------------------------------------------
# Logging
# ---------------------------------------------------------------------------


class TestLogging:
    def test_resolve_level_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        assert resolve_level() == 20  # INFO
        monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
        assert resolve_level() == 10
        assert resolve_level("WARNING") == 30  # flag beats env
        with pytest.raises(ValueError):
            resolve_level("noisy")

    def test_setup_logging_is_idempotent(self):
        root = setup_logging("INFO")
        again = setup_logging("DEBUG")
        assert root is again
        tagged = [
            h for h in root.handlers if getattr(h, "_repro_handler", False)
        ]
        assert len(tagged) == 1
        assert root.level == 10

    def test_get_logger_namespaces(self):
        assert get_logger("worker").name == "repro.worker"
        assert get_logger("repro.suite").name == "repro.suite"


# ---------------------------------------------------------------------------
# Determinism parity: telemetry on vs off, bitwise
# ---------------------------------------------------------------------------


def _with_telemetry(on, fn):
    set_enabled(on)
    try:
        return fn()
    finally:
        set_enabled(True)


class TestParity:
    def test_run_parity(self, tmp_path):
        def run(tag):
            with Session(cache_dir=str(tmp_path / tag)) as session:
                return _rows(session.run(CACHED))

        on = _with_telemetry(True, lambda: run("on"))
        off = _with_telemetry(False, lambda: run("off"))
        assert on == off

    def test_run_suite_parity(self, tmp_path):
        def run(tag):
            suite = make_suite(
                tmp_path / tag, name="telemetry-suite", members=PARITY_MEMBERS
            )
            with Session.for_suite(suite) as session:
                result = session.run_suite(suite)
            return {name: _rows(result[name]) for name in suite.names}

        on = _with_telemetry(True, lambda: run("on"))
        off = _with_telemetry(False, lambda: run("off"))
        assert on == off

    def test_distributed_parity(self, tmp_path):
        def run(tag, distributed):
            suite = make_suite(
                tmp_path / tag, name="telemetry-dist", members=PARITY_MEMBERS
            )
            with Session.for_suite(suite) as session:
                if distributed:
                    result = Coordinator(session, suite, poll_seconds=0.05).run()
                else:
                    result = session.run_suite(suite)
            return {name: _rows(result[name]) for name in suite.names}

        distributed_on = _with_telemetry(
            True, lambda: run("dist-on", True)
        )
        in_process_off = _with_telemetry(
            False, lambda: run("inproc-off", False)
        )
        assert distributed_on == in_process_off


# ---------------------------------------------------------------------------
# Span-tree coherence for a distributed suite
# ---------------------------------------------------------------------------


class TestDistributedTrace:
    def test_distributed_suite_yields_one_coherent_tree(self, tmp_path):
        name = "telemetry-tree"
        suite = make_suite(tmp_path, name=name, members=PARITY_MEMBERS)
        with Session.for_suite(suite) as session:
            Coordinator(session, suite, poll_seconds=0.05).run()
        spans = filter_suite(load_spans(str(tmp_path)), name)
        assert spans, "distributed run persisted no spans"
        context = suite_trace_context(name)
        roots, children = build_span_tree(spans)
        suite_roots = [r for r in roots if r["name"] == f"suite/{name}"]
        assert len(suite_roots) == 1
        root = suite_roots[0]
        assert root["span_id"] == context.span_id
        assert root["trace_id"] == context.trace_id
        task_spans = [s for s in spans if s["name"].startswith("task/")]
        assert len(task_spans) == len(PARITY_MEMBERS)
        for span in task_spans:
            # Stitched across the queue boundary by the task record.
            assert span["trace_id"] == context.trace_id
            assert span["parent_id"] == context.span_id
        # Each task nests the study execution beneath it.
        study_spans = [s for s in spans if s["name"].startswith("study/")]
        task_ids = {s["span_id"] for s in task_spans}
        assert study_spans
        assert all(s["parent_id"] in task_ids for s in study_spans)
        rendered = render_span_tree(spans)
        assert f"suite/{name}" in rendered and "task/" in rendered

    def test_resumed_suite_records_replay_spans(self, tmp_path):
        name = "telemetry-replay"
        suite = make_suite(tmp_path, name=name, members=PARITY_MEMBERS)
        with Session.for_suite(suite) as session:
            session.run_suite(suite)
        with Session.for_suite(suite) as session:
            session.run_suite(suite, resume=True)
        spans = filter_suite(load_spans(str(tmp_path)), name)
        replays = [s for s in spans if s["name"].startswith("replay/")]
        assert {s["name"] for s in replays} == {
            f"replay/{member}" for member, _ in PARITY_MEMBERS
        }
        assert all(s["attrs"].get("cached") for s in replays)

    def test_in_process_suite_spans_join_the_suite_trace(self, tmp_path):
        name = "telemetry-in-process"
        suite = make_suite(tmp_path, name=name, members=PARITY_MEMBERS)
        with Session.for_suite(suite) as session:
            session.run_suite(suite)
        spans = filter_suite(load_spans(str(tmp_path)), name)
        context = suite_trace_context(name)
        members = [s for s in spans if s["name"].startswith("member/")]
        assert sorted(s["name"] for s in members) == sorted(
            f"member/{member}" for member, _ in PARITY_MEMBERS
        )
        for member in members:
            assert member["trace_id"] == context.trace_id
            assert member["parent_id"] == context.span_id
            assert [
                s["name"].split("/")[0]
                for s in spans
                if s["parent_id"] == member["span_id"]
            ] == ["study"]


# ---------------------------------------------------------------------------
# Serve endpoints
# ---------------------------------------------------------------------------


@contextmanager
def serving(tmp_path, **config):
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


def _get_raw(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return response.status, dict(response.headers), response.read()


def _get_json(server, path):
    status, _, body = _get_raw(server, path)
    return status, json.loads(body)


def _post_json(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _wait_terminal(server, job_id):
    deadline = time.time() + DEADLINE
    while time.time() < deadline:
        _, summary = _get_json(server, f"/v1/jobs/{job_id}")
        if summary["state"] in ("done", "failed", "cancelled"):
            return summary
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never settled")


class TestServeTelemetry:
    def test_metrics_endpoint_exposition(self, tmp_path):
        with serving(tmp_path) as server:
            status, headers, body = _get_raw(server, "/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in headers["Content-Type"]
            text = body.decode()
            assert "# TYPE repro_http_requests counter" in text
            assert "# TYPE repro_serve_jobs gauge" in text
            # The first scrape counted itself; the second one shows it.
            _, _, body = _get_raw(server, "/metrics")
            assert re.search(
                r'repro_http_requests_total\{method="GET",route="/metrics",'
                r'status="200"\} \d+',
                body.decode(),
            )

    def test_request_counted_before_its_response_is_read(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.server as server_module
        from repro.telemetry.instruments import HTTP_REQUESTS

        # Hold each handler after its response is sent, where it observes
        # the latency, so a late count cannot catch up before the check.
        release = threading.Event()
        latency = server_module.HTTP_REQUEST_SECONDS

        class HeldLatency:
            def labels(self, **labels):
                child = latency.labels(**labels)

                def observe(value):
                    release.wait(DEADLINE)
                    child.observe(value)

                return SimpleNamespace(observe=observe)

        monkeypatch.setattr(server_module, "HTTP_REQUEST_SECONDS", HeldLatency())
        health = dict(method="GET", route="/v1/health", status="200")
        with serving(tmp_path) as server:
            try:
                before = HTTP_REQUESTS.value(**health)
                status, _ = _get_json(server, "/v1/health")
                assert status == 200
                assert HTTP_REQUESTS.value(**health) == before + 1
            finally:
                release.set()

    def test_unserved_paths_share_the_other_route_label(self, tmp_path):
        # A path no handler serves must not mint a label value of its
        # own: any client could then add a series, plus a whole latency
        # histogram, per distinct path.
        from repro.telemetry.instruments import HTTP_REQUESTS

        templates = {
            "/", "/metrics", "/v1/health", "/v1/studies", "/v1/suites",
            "/v1/jobs", "/v1/jobs/{id}", "/v1/jobs/{id}/result",
            "/v1/jobs/{id}/events", "/v1/queue", "/v1/results/{suite}",
            "/v1/results/{suite}/{member}", "/v1/reports/{suite}",
            "/v1/telemetry/spans", "other",
        }
        unserved = [
            "/v1/jobs/x/zz1", "/v1/jobs/x/zz2", "/v1/jobs/x/result/more",
            "/v1/telemetry/abc123", "/v1/telemetry/def456",
            "/v1/results/a/b/c", "/v1/reports/a/b", "/v1/health/deep",
            "/v1/queue/x", "/v1", "/v2/jobs", "/metrics/x",
        ]
        other = dict(method="GET", route="other", status="404")
        with serving(tmp_path) as server:
            before = HTTP_REQUESTS.value(**other)
            for path in unserved:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get_raw(server, path)
                excinfo.value.close()
                assert excinfo.value.code == 404, path
            assert HTTP_REQUESTS.value(**other) == before + len(unserved)
            _, _, body = _get_raw(server, "/metrics")
        routes = set(re.findall(r'route="([^"]*)"', body.decode()))
        assert "other" in routes
        assert routes <= templates, sorted(routes - templates)

    def test_job_and_task_metrics_move(self, tmp_path):
        with serving(tmp_path) as server:
            _, accepted = _post_json(
                server, "/v1/studies", json.loads(ANALYTIC.to_json())
            )
            summary = _wait_terminal(server, accepted["job"])
            assert summary["state"] == "done"
            _, _, body = _get_raw(server, "/metrics")
            text = body.decode()
            assert 'repro_serve_jobs{state="done"} 1' in text

    def test_telemetry_spans_endpoint(self, tmp_path):
        with serving(tmp_path) as server:
            _, accepted = _post_json(
                server,
                "/v1/studies",
                {
                    "study": "sample_size",
                    "params": {"gammas": [0.6, 0.7]},
                    "random_state": 3,
                },
            )
            summary = _wait_terminal(server, accepted["job"])
            assert summary["state"] == "done"
            status, payload = _get_json(server, "/v1/telemetry/spans")
            assert status == 200
            assert payload["count"] == len(payload["spans"])
            names = [s["name"] for s in payload["spans"]]
            assert any(n.startswith("study/") for n in names)
            status, limited = _get_json(server, "/v1/telemetry/spans?limit=1")
            assert status == 200 and len(limited["spans"]) <= 1

    def test_spans_endpoint_rejects_bad_limit(self, tmp_path):
        with serving(tmp_path) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get_raw(server, "/v1/telemetry/spans?limit=bogus")
            excinfo.value.close()
            assert excinfo.value.code == 400


# ---------------------------------------------------------------------------
# Job event log: full tracebacks + attempt counts
# ---------------------------------------------------------------------------


class TestJobDiagnostics:
    def test_failed_job_records_full_traceback(self, tmp_path):
        with Session(cache_dir=str(tmp_path / "cache")) as session:
            registry = JobRegistry(session)
            job = registry._register("study", "boom")

            def execute():
                raise RuntimeError("kaboom")

            job.mark_running()
            registry._drive(job, execute)
            deadline = time.time() + 10
            while not job.terminal and time.time() < deadline:
                time.sleep(0.01)
            assert job.state == "failed"
            assert "kaboom" in job.error
            assert "Traceback (most recent call last)" in job.traceback
            end = job.events[-1]
            assert end["event"] == "end"
            assert "kaboom" in end["traceback"]
            assert job.to_dict()["traceback"] == job.traceback

    def test_harvest_queue_failure_copies_attempts_and_tracebacks(self):
        job = Job("suite-1", "suite", "s")

        class FakeQueue:
            def snapshot(self, detail=False):
                return SimpleNamespace(
                    attempts={"t1": 2, "t2": 1}, failed={"t1"}
                )

            def load_error(self, task_id):
                return "Traceback (most recent call last):\nboom"

        JobRegistry._harvest_queue_failure(
            job, SimpleNamespace(queue=FakeQueue())
        )
        assert job.attempts == {"t1": 2, "t2": 1}
        task_errors = [
            e for e in job.events if e["event"] == "task_error"
        ]
        assert len(task_errors) == 1
        assert task_errors[0]["task"] == "t1"
        assert task_errors[0]["attempts"] == 2
        assert "Traceback" in task_errors[0]["traceback"]


# ---------------------------------------------------------------------------
# CLI: repro trace + --log-level
# ---------------------------------------------------------------------------


class TestCLI:
    def test_trace_renders_tree_and_aggregates(self, tmp_path, capsys):
        name = "cli-trace"
        suite = make_suite(tmp_path, name=name, members=PARITY_MEMBERS)
        with Session.for_suite(suite) as session:
            session.run_suite(suite)
        assert main(["trace", str(tmp_path), "--suite", name]) == 0
        out = capsys.readouterr().out
        assert f"suite/{name}" in out
        assert "phase" in out and "mean" in out

    def test_trace_json_payload(self, tmp_path, capsys):
        suite = make_suite(tmp_path, name="cli-json", members=PARITY_MEMBERS)
        with Session.for_suite(suite) as session:
            session.run_suite(suite)
        assert main(["trace", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] and payload["phases"]
        phases = {row["phase"] for row in payload["phases"]}
        assert "suite" in phases

    def test_trace_empty_cache_dir(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path)]) == 0
        assert "no spans" in capsys.readouterr().out

    def test_trace_missing_dir_exits_2(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_log_level_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(ANALYTIC.to_json())
        assert main(["run", str(spec), "--log-level", "noisy"]) == 2
        assert "log level" in capsys.readouterr().err.lower()
