"""HTTP/JSON front door for a shared study session: ``repro serve``.

A :class:`StudyServer` wraps one :class:`~repro.api.session.Session`
bound to a cache directory in a stdlib
:class:`~http.server.ThreadingHTTPServer`.  Clients submit study and
suite specs as JSON, poll job status, stream per-member progress over
server-sent events, and read cached results back out of the shared
store — all without importing repro.  Suites go through the durable
:class:`~repro.sched.queue.TaskQueue`, so external
``python -m repro worker <cache_dir>`` processes (local or on other
hosts over a shared filesystem) drain the same submissions.

Routes (all JSON unless noted):

========  ==============================  =====================================
method    path                            purpose
========  ==============================  =====================================
GET       ``/``                           status dashboard (HTML)
GET       ``/v1/health``                  liveness + cache stats
GET       ``/v1/studies``                 registry catalogue
POST      ``/v1/studies``                 submit a StudySpec -> 202 ``{"job"}``
POST      ``/v1/suites``                  submit a SuiteSpec -> 202 ``{"job"}``
GET       ``/v1/jobs``                    all job summaries
GET       ``/v1/jobs/<id>``               one job summary
DELETE    ``/v1/jobs/<id>``               cancel (best effort)
GET       ``/v1/jobs/<id>/result``        full result payload once done
GET       ``/v1/jobs/<id>/events``        progress stream (text/event-stream)
GET       ``/v1/queue``                   snapshot of every live task queue
GET       ``/v1/results/<suite>``         completed members of a suite
GET       ``/v1/results/<suite>/<name>``  one member's completion record
GET       ``/v1/reports/<suite>``         variance-provenance report (JSON)
GET       ``/v1/telemetry/spans``         recent trace spans (``?limit=N``)
GET       ``/metrics``                    Prometheus text exposition
========  ==============================  =====================================

Malformed specs are rejected with 400 and the registry's positional
error message (e.g. ``suite spec 'noise': study 'nois' ...``); unknown
paths and job ids are 404.  The server binds before :meth:`serve_forever`
returns control, so tests construct it with ``port=0`` and read the
kernel-assigned port from ``server_address``.
"""

from __future__ import annotations

import json
import os
import socket
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.api.registry import iter_studies
from repro.api.session import Session
from repro.sched.queue import TaskQueue
from repro.serve.dashboard import DASHBOARD_HTML
from repro.serve.jobs import JOB_STATES, JobRegistry
from repro.telemetry.instruments import (
    HTTP_REQUESTS,
    HTTP_REQUEST_SECONDS,
    SERVE_JOBS,
    SSE_STREAMS,
)
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.tracing import trace

__all__ = ["StudyServer", "serve"]

#: Seconds an idle ``/events`` stream waits before emitting an SSE
#: keepalive comment (which also detects disconnected clients).
SSE_KEEPALIVE_SECONDS = 15.0

#: Refuse request bodies beyond this size — suite manifests are a few KiB;
#: anything megabytes-large is a mistake or abuse, not a spec.
MAX_BODY_BYTES = 8 << 20


#: Every route a handler serves, as ``(method, template, handler name)``.
#: A ``{name}`` segment matches any one path segment and is passed to the
#: handler positionally.  The matched template is also the request's
#: ``route`` metric label, so a path no handler serves is labelled
#: ``other`` and clients cannot grow the label set.
ROUTES = (
    ("GET", "/", "_dashboard"),
    ("GET", "/metrics", "_metrics"),
    ("GET", "/v1/health", "_health"),
    ("GET", "/v1/studies", "_studies"),
    ("POST", "/v1/studies", "_submit_study"),
    ("POST", "/v1/suites", "_submit_suite"),
    ("GET", "/v1/jobs", "_jobs"),
    ("GET", "/v1/jobs/{id}", "_job_summary"),
    ("DELETE", "/v1/jobs/{id}", "_cancel_job"),
    ("GET", "/v1/jobs/{id}/result", "_job_result"),
    ("GET", "/v1/jobs/{id}/events", "_job_events"),
    ("GET", "/v1/queue", "_queue"),
    ("GET", "/v1/results/{suite}", "_suite_members"),
    ("GET", "/v1/results/{suite}/{member}", "_member_record"),
    ("GET", "/v1/reports/{suite}", "_suite_report"),
    ("GET", "/v1/telemetry/spans", "_telemetry_spans"),
)


def _match(
    method: str, parts: List[str]
) -> Tuple[str, Optional[str], List[str]]:
    """``(route label, handler name, path arguments)`` for one request;
    the handler is ``None`` and the label ``other`` when no route serves
    it."""
    for route_method, template, handler in ROUTES:
        segments = [segment for segment in template.split("/") if segment]
        if route_method != method or len(segments) != len(parts):
            continue
        args: List[str] = []
        for segment, part in zip(segments, parts):
            if segment.startswith("{"):
                args.append(part)
            elif segment != part:
                break
        else:
            return template, handler, args
    return "other", None, []


class _Handler(BaseHTTPRequestHandler):
    """One request, dispatched through the :data:`ROUTES` table."""

    protocol_version = "HTTP/1.1"
    server: "StudyServer"

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(
        self, payload: Any, status: int = HTTPStatus.OK
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status)

    def _read_body_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body is empty; expected a JSON spec")
        if length > MAX_BODY_BYTES:
            raise ValueError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"request body is not valid JSON: {error}")

    def _parts(self) -> List[str]:
        path = self.path.split("?", 1)[0]
        return [part for part in path.split("/") if part]

    def _query(self) -> Dict[str, List[str]]:
        split = self.path.split("?", 1)
        return parse_qs(split[1]) if len(split) == 2 else {}

    #: ``(method, route)`` of the request being handled until it is counted.
    _uncounted: Optional[Tuple[str, str]] = None

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        # Count the request before any of its bytes go out: a client that
        # reads this response and then scrapes /metrics must find it there.
        self._count_request(str(int(code)))
        super().send_response(code, message)

    def _count_request(self, status: str) -> None:
        if self._uncounted is not None:
            method, route = self._uncounted
            self._uncounted = None
            HTTP_REQUESTS.labels(method=method, route=route, status=status).inc()

    def _instrumented(self, method: str) -> None:
        parts = self._parts()
        route, handler, args = _match(method, parts)
        self._uncounted = (method, route)
        started = time.perf_counter()
        try:
            if handler is None:
                self._send_error_json(HTTPStatus.NOT_FOUND, "not found")
            else:
                getattr(self, handler)(*args)
        except BrokenPipeError:
            pass  # client went away mid-response
        finally:
            HTTP_REQUEST_SECONDS.labels(route=route).observe(
                time.perf_counter() - started
            )
            # A handler that raised before responding still counts, as "0".
            self._count_request("0")

    # -- verbs ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        self._instrumented("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._instrumented("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._instrumented("DELETE")

    # -- handlers -------------------------------------------------------
    def _dashboard(self) -> None:
        body = DASHBOARD_HTML.encode("utf-8")
        self.send_response(HTTPStatus.OK)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _metrics(self) -> None:
        # Job-state gauges are sampled at scrape time rather than
        # maintained incrementally, so every state (including ones with
        # zero jobs right now) is published each scrape.
        states = {state: 0 for state in JOB_STATES}
        for job in self.server.registry.jobs():
            states[job.state] = states.get(job.state, 0) + 1
        for state, count in sorted(states.items()):
            SERVE_JOBS.labels(state=state).set(count)
        body = REGISTRY.render().encode("utf-8")
        self.send_response(HTTPStatus.OK)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _studies(self) -> None:
        self._send_json([info.to_dict() for info in iter_studies()])

    def _jobs(self) -> None:
        self._send_json([job.to_dict() for job in self.server.registry.jobs()])

    def _submit_study(self) -> None:
        self._submit(self.server.registry.submit_study)

    def _submit_suite(self) -> None:
        self._submit(self.server.registry.submit_suite)

    def _cancel_job(self, job_id: str) -> None:
        job = self.server.registry.get(job_id)
        if job is None:
            return self._send_error_json(
                HTTPStatus.NOT_FOUND, f"unknown job {job_id!r}"
            )
        cancelled = job.cancel()
        self._send_json(
            {"job": job.id, "cancelled": cancelled, **job.to_dict()}
        )

    def _telemetry_spans(self) -> None:
        query = self._query()
        try:
            limit = int(query.get("limit", ["500"])[0])
        except ValueError:
            return self._send_error_json(
                HTTPStatus.BAD_REQUEST, "limit must be an integer"
            )
        spans = trace.spans(limit=max(limit, 0))
        self._send_json({"count": len(spans), "spans": spans})

    def _health(self) -> None:
        registry = self.server.registry
        self._send_json(
            {
                "status": "ok",
                "cache_dir": registry.cache_dir,
                "jobs": len(registry.jobs()),
                "cache": registry.session.cache.stats(),
            }
        )

    def _submit(self, submit) -> None:
        try:
            payload = self._read_body_json()
            job = submit(payload)
        except (KeyError, TypeError, ValueError) as error:
            # Positional spec errors ("suite spec 'x': ...") surface
            # verbatim so a client can fix the offending entry.
            message = error.args[0] if error.args else str(error)
            return self._send_error_json(HTTPStatus.BAD_REQUEST, str(message))
        except RuntimeError as error:
            return self._send_error_json(
                HTTPStatus.SERVICE_UNAVAILABLE, str(error)
            )
        self._send_json(
            {"job": job.id, **job.to_dict()}, HTTPStatus.ACCEPTED
        )

    def _job_summary(self, job_id: str) -> None:
        job = self.server.registry.get(job_id)
        if job is None:
            return self._send_error_json(
                HTTPStatus.NOT_FOUND, f"unknown job {job_id!r}"
            )
        self._send_json(job.to_dict())

    def _job_result(self, job_id: str) -> None:
        job = self.server.registry.get(job_id)
        if job is None:
            return self._send_error_json(
                HTTPStatus.NOT_FOUND, f"unknown job {job_id!r}"
            )
        summary = job.to_dict()
        if job.state != "done" or job.result is None:
            status = (
                HTTPStatus.OK if job.terminal else HTTPStatus.ACCEPTED
            )
            return self._send_json(summary, status)
        # to_json is the same serialisation the CLI and completion records
        # use, so byte-for-byte comparisons against direct runs hold.
        summary["result"] = json.loads(job.result.to_json())
        self._send_json(summary)

    def _job_events(self, job_id: str) -> None:
        job = self.server.registry.get(job_id)
        if job is None:
            return self._send_error_json(
                HTTPStatus.NOT_FOUND, f"unknown job {job_id!r}"
            )
        self.send_response(HTTPStatus.OK)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        # Resume from Last-Event-ID so a dropped dashboard reconnects
        # without replaying (EventSource sends it automatically).
        try:
            next_seq = int(self.headers.get("Last-Event-ID", -1)) + 1
        except ValueError:
            next_seq = 0
        SSE_STREAMS.inc()
        try:
            while True:
                events, terminal = job.wait_events(
                    next_seq, timeout=SSE_KEEPALIVE_SECONDS
                )
                for event in events:
                    frame = (
                        f"id: {event['seq']}\n"
                        f"event: {event['event']}\n"
                        f"data: {json.dumps(event, sort_keys=True)}\n\n"
                    )
                    self.wfile.write(frame.encode("utf-8"))
                    next_seq = event["seq"] + 1
                if terminal and not events:
                    return  # log drained and job settled: end the stream
                if not events:
                    self.wfile.write(b": keepalive\n\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # client disconnected; nothing to clean up
        finally:
            SSE_STREAMS.dec()

    def _queue(self) -> None:
        statuses = []
        for queue in TaskQueue.discover(self.server.registry.cache_dir):
            try:
                statuses.append(queue.status())
            except OSError:
                continue  # queue destroyed between discover and status
        self._send_json(statuses)

    def _suite_records_dir(self, suite: str) -> Optional[str]:
        # Reject path components so a crafted scope cannot escape the
        # store ("../../etc" etc.).
        if not suite or "/" in suite or "\\" in suite or suite in (".", ".."):
            return None
        session = self.server.registry.session
        return os.path.join(session.cache.namespace("suites"), suite)

    def _suite_members(self, suite: str) -> None:
        records_dir = self._suite_records_dir(suite)
        if records_dir is None or not os.path.isdir(records_dir):
            return self._send_error_json(
                HTTPStatus.NOT_FOUND, f"no cached results for suite {suite!r}"
            )
        members = sorted(
            entry[: -len(".json")]
            for entry in os.listdir(records_dir)
            if entry.endswith(".json") and entry != "manifest.json"
        )
        self._send_json(
            {
                "suite": suite,
                "members": members,
                "manifest": os.path.isfile(
                    os.path.join(records_dir, "manifest.json")
                ),
            }
        )

    def _suite_report(self, suite: str) -> None:
        from repro.report import ReportError, build_suite_report

        records_dir = self._suite_records_dir(suite)
        if records_dir is None or not os.path.isdir(records_dir):
            return self._send_error_json(
                HTTPStatus.NOT_FOUND, f"no cached results for suite {suite!r}"
            )
        cache_dir = self.server.registry.session.cache.cache_dir
        try:
            # Built from the completion records alone — the service never
            # re-executes a measurement to serve a report.
            payload = build_suite_report(cache_dir, suite)
        except ReportError as error:
            return self._send_error_json(HTTPStatus.CONFLICT, str(error))
        self._send_json(payload)

    def _member_record(self, suite: str, member: str) -> None:
        records_dir = self._suite_records_dir(suite)
        if (
            records_dir is None
            or not member
            or "/" in member
            or "\\" in member
            or member in (".", "..")
        ):
            return self._send_error_json(
                HTTPStatus.NOT_FOUND, f"no cached results for suite {suite!r}"
            )
        if member == "manifest":
            path = os.path.join(records_dir, "manifest.json")
        else:
            path = os.path.join(records_dir, f"{member}.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):  # incl. undecodable bytes
            return self._send_error_json(
                HTTPStatus.NOT_FOUND,
                f"no cached result for member {member!r} of suite {suite!r}",
            )
        self._send_json(record)


class StudyServer(ThreadingHTTPServer):
    """The service: a threading HTTP server owning one job registry.

    The socket is bound and listening once the constructor returns
    (``server_address`` then carries the real port, even for ``port=0``),
    but no request is handled until :meth:`serve_forever` runs — tests
    drive that from a background thread.  :meth:`shutdown` stops the
    accept loop; :meth:`server_close` also closes the registry (cancelling
    live jobs and ending every event stream) and, when the server owns
    its session, the session too.
    """

    daemon_threads = True  # in-flight handlers must not block exit

    def __init__(
        self,
        session: Session,
        *,
        host: str = "127.0.0.1",
        port: int = 8321,
        owns_session: bool = False,
        verbose: bool = False,
        **registry_config: Any,
    ) -> None:
        self.registry = JobRegistry(session, **registry_config)
        self.owns_session = bool(owns_session)
        self.verbose = bool(verbose)
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        if ":" in host:  # bare IPv6 literal needs brackets in a URL
            host = f"[{host}]"
        return f"http://{host}:{port}"

    def server_close(self) -> None:
        try:
            self.registry.close()
            if self.owns_session:
                self.registry.session.close()
        finally:
            super().server_close()


def serve(
    cache_dir: str,
    *,
    host: str = "127.0.0.1",
    port: int = 8321,
    session_config: Optional[Dict[str, Any]] = None,
    verbose: bool = True,
    **registry_config: Any,
) -> None:
    """Run the study service until interrupted (the CLI entry point).

    Opens a session on ``cache_dir`` (``session_config`` forwards knobs
    like ``n_jobs`` / ``batch_size`` / store budgets), binds
    ``host:port``, and blocks in the accept loop.  Study jobs run through
    that session's :meth:`~repro.api.session.Session.run`, at most
    :data:`~repro.serve.jobs.STUDY_SLOTS` at once; ``registry_config``
    configures the suite jobs' coordinators (see
    :class:`~repro.serve.jobs.JobRegistry`).  ``KeyboardInterrupt``
    shuts down gracefully: live jobs are cancelled, durable suite queues
    survive for workers or a resubmission to finish.
    """
    session = Session(cache_dir=cache_dir, **(session_config or {}))
    try:
        server = StudyServer(
            session,
            host=host,
            port=port,
            owns_session=True,
            verbose=verbose,
            **registry_config,
        )
    except (OSError, socket.error):
        session.close()
        raise
    with server:  # server_close on the way out, whatever happens
        print(f"repro serve: cache_dir={cache_dir} listening on {server.url}")
        print("dashboard at /  API under /v1/  (Ctrl-C to stop)")
        try:
            server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            print("\nrepro serve: shutting down")
