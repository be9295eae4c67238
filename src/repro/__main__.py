"""Command-line front door: ``python -m repro``.

A thin shell over :class:`~repro.api.spec.StudySpec` /
:class:`~repro.api.spec.SuiteSpec` and
:class:`~repro.api.session.Session`, so any registered study — or a whole
figure suite — is launchable from a JSON manifest without writing Python::

    python -m repro list
    python -m repro run spec.json
    python -m repro run spec.json --n-jobs 4 --cache-dir .repro-cache
    echo '{"study": "sample_size", "params": {}}' | python -m repro run -

    python -m repro suite manifest.json --n-jobs 4
    python -m repro suite manifest.json --resume        # replay completions
    python -m repro gc .repro-cache --max-bytes 67108864

    # variance-provenance reports from cached completion records only
    python -m repro report .repro-cache --suite fig-suite

    # telemetry: span tree + per-phase timing from <cache_dir>/telemetry/
    python -m repro trace .repro-cache --suite fig-suite

    # distributed: one coordinator + any number of workers, same cache dir
    python -m repro suite manifest.json --distributed   # terminal 1
    python -m repro worker .repro-cache                 # terminals 2..N
    python -m repro queue .repro-cache                  # live queue status

    # long-running HTTP/JSON study service with a live dashboard at /
    python -m repro serve .repro-cache --port 8321      # terminal 1
    python -m repro worker .repro-cache                 # terminals 2..N
    curl -d @manifest.json http://127.0.0.1:8321/v1/suites

``run`` prints :meth:`~repro.api.results.StudyResult.summary`.  ``suite``
executes every member of a :class:`~repro.api.spec.SuiteSpec` manifest
through one shared session/cache with per-member progress on stderr;
``--resume`` replays members already completed against the same
``cache_dir`` (a changed spec invalidates its record), and
``--distributed`` routes execution through the durable work queue in the
cache dir so ``worker`` processes — on this host or any host sharing the
directory — claim tasks under heartbeat leases and the coordinator
assembles the bitwise-identical result.  ``worker`` serves every queue it
finds under one cache dir until stopped (or, with ``--exit-when-done``,
until all queues complete); ``queue`` prints each queue's live
pending/running/done/failed state, lease ages and attempt counts.
``serve`` runs the long-lived study service (see ``src/repro/serve/``):
specs POSTed to ``/v1/studies`` run on the session's bounded in-process
pool, manifests POSTed to ``/v1/suites`` go through the same durable
queue that ``worker`` drains, per-member progress streams from
``/v1/jobs/<id>/events`` as server-sent events, and ``GET /`` serves a
zero-dependency status dashboard.
``report`` rebuilds variance-provenance artifacts (markdown + JSON
variance budgets, see ``src/repro/report/``) purely from the suite
completion records in a cache dir — no measurement re-executes — and
writes them under ``<cache_dir>/reports/<suite>/``.
``trace`` renders the telemetry span tree persisted under
``<cache_dir>/telemetry/`` (every process that ran against the cache
dir appends its spans there, stitched into one trace per suite) plus
per-phase timing aggregates.  ``REPRO_TELEMETRY=0`` disables metrics and
tracing entirely (results are bitwise-identical either way).
``gc`` prunes a per-key store back within byte / entry budgets,
LRU-by-last-use.  Because specs fully determine their results (seeds are
scope-derived, see EXPERIMENTS.md), re-running against the same
``--cache-dir`` replays measurements without refitting — including
measurements persisted by other workers sharing the directory.

Shared flags are declared once, in parent parsers, and mean the same on
every subcommand that takes them:

* engine — ``--n-jobs``, ``--backend``, ``--batch-size`` (``run``,
  ``suite``, ``worker``, ``serve``): override the spec's or manifest's
  worker count and executor backend, and fit up to ``--batch-size``
  same-hyperparameter measurements as one vectorized multi-seed batch.
  Results are bitwise-identical at any value.
* queue — ``--lease-seconds`` (``suite``, ``worker``, ``queue``,
  ``serve``): the heartbeat lease after which a claimed task may be
  stolen.  Durable task state lives in rename-claim files under
  ``<cache_dir>/queue/<suite>/``.
* retry — ``--max-attempts``, ``--stall-seconds`` (``suite``,
  ``worker``, ``serve``): executions a task gets before a transient
  failure parks it, and how long a study may make no progress before its
  lease stops being renewed.
* ``--json`` (``run``, ``suite``, ``queue``, ``gc``, ``trace``,
  ``report``, ``list``): print the machine-readable payload instead of
  the human summary.
* ``--log-level`` (``run``, ``suite``, ``worker``, ``serve``): threshold
  of the levelled stderr logging (default ``$REPRO_LOG_LEVEL`` or INFO).

On ``suite``, ``--shard-members``, ``--lease-seconds`` and the retry
flags require ``--distributed``.

Exit codes: 0 success, 2 for an unreadable or malformed spec/manifest or
an out-of-range flag (the offending field is named on stderr).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional

from repro.api import Session, StudySpec, SuiteSpec, get_study, iter_studies
from repro.api.spec import VALID_BACKENDS
from repro.engine.cache import FileStore
from repro.telemetry.log import get_logger, setup_logging


class CLIError(Exception):
    """A user-input problem (bad file, malformed manifest): message, no
    traceback, exit code 2."""


#: ``(dest, rule, message)`` for every range-checked flag, in the order a
#: command reports them.  A flag a subcommand does not take, or left at a
#: ``None`` default, is skipped.
_RANGE_CHECKS = (
    ("port", lambda v: 0 <= v <= 65535, "--port must be between 0 and 65535"),
    ("lease_seconds", lambda v: v > 0, "--lease-seconds must be positive"),
    ("max_attempts", lambda v: v >= 1, "--max-attempts must be at least 1"),
    ("stall_seconds", lambda v: v > 0, "--stall-seconds must be positive"),
    ("batch_size", lambda v: v >= 1, "--batch-size must be a positive integer"),
    ("poll_seconds", lambda v: v > 0, "--poll-seconds must be positive"),
    ("max_bytes", lambda v: v >= 1, "--max-bytes must be a positive integer"),
    ("max_entries", lambda v: v >= 1, "--max-entries must be a positive integer"),
)


def _check_flags(args: argparse.Namespace, *, store: bool = False) -> None:
    """Reject out-of-range flags with exit 2.

    Each command calls this after its own gating (reading the spec, the
    ``suite`` flags that require ``--distributed``); with ``store`` the
    positional cache directory must exist first.
    """
    if store and not os.path.isdir(args.cache_dir):
        raise CLIError(f"no cache directory at {args.cache_dir!r}")
    for dest, rule, message in _RANGE_CHECKS:
        value = getattr(args, dest, None)
        if value is not None and not rule(value):
            raise CLIError(message)


def _parent() -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False)


def _queue_flags(lease_seconds: Optional[float]) -> argparse.ArgumentParser:
    # A factory, not one shared parent: argparse shares a parent's action
    # objects between its children, so one child's set_defaults would
    # change every child's default.  ``suite`` needs None (to tell an
    # explicit --lease-seconds apart); worker, queue and serve need 30.
    queue = _parent()
    queue.add_argument(
        "--lease-seconds",
        type=float,
        default=lease_seconds,
        help=(
            "heartbeat lease after which a claimed task is presumed crashed "
            "and may be stolen (default 30; use minutes across hosts with "
            "clock skew)"
        ),
    )
    return queue


def _build_parser() -> argparse.ArgumentParser:
    engine = _parent()
    engine.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        help="override the worker count per study (-1 = all cores)",
    )
    engine.add_argument(
        "--backend",
        choices=VALID_BACKENDS,
        default=None,
        help="override the executor backend",
    )
    engine.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "group up to this many same-hyperparameter measurements into "
            "one vectorized multi-seed fit (results are bitwise-identical "
            "at any value; defaults the backend to 'process')"
        ),
    )
    retry = _parent()
    retry.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help=(
            "executions a task gets before a transient failure (OSError, "
            "timeout) parks it as failed (default 3; deterministic errors "
            "always park on the first)"
        ),
    )
    retry.add_argument(
        "--stall-seconds",
        type=float,
        default=None,
        help=(
            "stop renewing a task's lease when its study makes no progress "
            "for this long, so a hung task is stolen by a healthy worker "
            "(default: renew unconditionally)"
        ),
    )
    shard = _parent()
    shard.add_argument(
        "--shard-members",
        action="store_true",
        help=(
            "pre-shard suite members by scope path (e.g. one task per "
            "task_names value) for finer-grained work stealing"
        ),
    )
    cache_option = _parent()
    cache_option.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "per-key measurement store shared by concurrent workers "
            "(overrides a manifest's); re-runs replay from it without "
            "refitting"
        ),
    )
    store = _parent()
    store.add_argument(
        "cache_dir",
        help=(
            "an existing per-key store directory (measurements, suite "
            "records, work queues and telemetry all live here)"
        ),
    )
    suite_name = _parent()
    suite_name.add_argument(
        "--suite",
        default=None,
        help="only this suite (default: every suite under the cache dir)",
    )
    as_json = _parent()
    as_json.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable JSON payload instead of the summary",
    )
    logs = _parent()
    logs.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help=(
            "logging threshold for repro.* loggers (DEBUG, INFO, WARNING, "
            "ERROR, CRITICAL; default: $REPRO_LOG_LEVEL or INFO)"
        ),
    )
    queue = _queue_flags(lease_seconds=30.0)

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run registered studies from declarative JSON specs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run",
        parents=[engine, cache_option, as_json, logs],
        help="execute a StudySpec JSON file and print its result",
    )
    run.add_argument("spec", help="path to the spec JSON ('-' reads stdin)")
    run.set_defaults(handler=_run)

    suite = commands.add_parser(
        "suite",
        parents=[
            engine, cache_option, _queue_flags(lease_seconds=None), retry,
            shard, as_json, logs,
        ],
        help=(
            "execute every member of a SuiteSpec manifest through one "
            "shared session and cache"
        ),
    )
    suite.add_argument(
        "manifest", help="path to the suite manifest JSON ('-' reads stdin)"
    )
    suite.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay members whose completion record (written under the "
            "cache_dir on every finished run) matches their current spec, "
            "re-running only the rest"
        ),
    )
    suite.add_argument(
        "--distributed",
        action="store_true",
        help=(
            "execute through the durable work queue under the cache dir so "
            "`repro worker` processes sharing it claim tasks cooperatively; "
            "this coordinator participates too, so zero workers still "
            "complete (--shard-members, --lease-seconds and the retry "
            "flags require it)"
        ),
    )
    suite.set_defaults(handler=_suite)

    worker = commands.add_parser(
        "worker",
        parents=[store, suite_name, engine, queue, retry, logs],
        help=(
            "serve the distributed work queues under a shared cache "
            "directory: claim tasks, execute them through the shared "
            "store, heartbeat leases, steal from crashed workers"
        ),
    )
    worker.add_argument(
        "--poll-seconds",
        type=float,
        default=0.5,
        help="idle sleep between queue scans (default 0.5)",
    )
    worker.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        help="exit after executing this many tasks",
    )
    worker.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="exit after this many seconds regardless of queue state",
    )
    worker.add_argument(
        "--exit-when-done",
        action="store_true",
        help=(
            "exit once at least one queue exists and every queue served "
            "is complete (default: poll forever for new suites)"
        ),
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="identity stamped into lease files (default host:pid)",
    )
    worker.set_defaults(handler=_worker)

    queue_status = commands.add_parser(
        "queue",
        parents=[store, suite_name, queue, as_json],
        help=(
            "show the live state of every distributed work queue under a "
            "cache directory: task counts, lease ages, attempt counts, "
            "worker ids"
        ),
    )
    queue_status.set_defaults(handler=_queue_status)

    gc = commands.add_parser(
        "gc",
        parents=[store, as_json],
        help=(
            "prune a per-key cache directory back within byte/entry "
            "budgets (LRU-by-last-use) and sweep crash leftovers"
        ),
    )
    gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="byte budget for the object tree",
    )
    gc.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="entry-count budget for the object tree",
    )
    gc.set_defaults(handler=_gc)

    serve = commands.add_parser(
        "serve",
        parents=[store, engine, queue, retry, shard, logs],
        help=(
            "run the HTTP/JSON study service: POST specs, stream progress "
            "over server-sent events, browse the dashboard at /"
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; 0.0.0.0 exposes the LAN)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="port to bind (default 8321; 0 picks a free port)",
    )
    serve.add_argument(
        "--max-concurrent-studies",
        type=int,
        default=None,
        help=(
            "bound on studies the in-process submit pool runs at once "
            "(suites are not affected: they go through the work queue)"
        ),
    )
    serve.add_argument(
        "--no-participate",
        action="store_true",
        help=(
            "do not execute suite tasks in the service process; external "
            "`repro worker` processes must drain the queue"
        ),
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request access logging",
    )
    serve.set_defaults(handler=_serve)

    trace = commands.add_parser(
        "trace",
        parents=[store, suite_name, as_json],
        help=(
            "render the telemetry span tree recorded under a cache "
            "directory (coordinator, workers and in-process runs all "
            "append to <cache_dir>/telemetry/)"
        ),
    )
    trace.set_defaults(handler=_trace)

    report = commands.add_parser(
        "report",
        parents=[store, suite_name, as_json],
        help=(
            "emit markdown + JSON variance-budget reports from cached "
            "suite completion records (zero re-execution)"
        ),
    )
    report.set_defaults(handler=_report)

    commands.add_parser(
        "list", parents=[as_json], help="list registered studies"
    ).set_defaults(handler=_list)
    return parser


def _read_payload(source: str, what: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        with open(source, encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise CLIError(f"cannot read {what} {source!r}: {error}") from error


def _read_spec(source: str) -> StudySpec:
    payload = _read_payload(source, "spec file")
    try:
        spec = StudySpec.from_json(payload)
        get_study(spec.study).validate_params(spec.params)
    except json.JSONDecodeError as error:
        raise CLIError(f"spec {source!r} is not valid JSON: {error}") from error
    except (KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else error
        raise CLIError(f"malformed spec {source!r}: {message}") from error
    return spec


def _read_suite(source: str) -> SuiteSpec:
    payload = _read_payload(source, "suite manifest")
    try:
        suite = SuiteSpec.from_json(payload)
    except json.JSONDecodeError as error:
        raise CLIError(
            f"suite manifest {source!r} is not valid JSON: {error}"
        ) from error
    except (TypeError, ValueError) as error:
        raise CLIError(
            f"malformed suite manifest {source!r}: {error}"
        ) from error
    return suite


def _run(args: argparse.Namespace) -> int:
    spec = _read_spec(args.spec)
    if args.n_jobs is not None:
        spec = spec.replace(n_jobs=args.n_jobs)
    if args.backend is not None:
        spec = spec.replace(backend=args.backend)
    _check_flags(args)
    batch_size = 1 if args.batch_size is None else args.batch_size
    with Session(cache_dir=args.cache_dir, batch_size=batch_size) as session:
        result = session.run(spec)
        print(result.to_json(indent=2) if args.json else result.summary())
    return 0


def _suite(args: argparse.Namespace) -> int:
    suite = _read_suite(args.manifest)
    overrides = {}
    if args.n_jobs is not None:
        overrides["n_jobs"] = args.n_jobs
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir
    if overrides:
        suite = suite.replace(**overrides)
    if args.resume and suite.cache_dir is None:
        raise CLIError(
            "--resume requires a cache_dir (in the manifest or --cache-dir)"
        )
    try:
        suite.validate()
    except ValueError as error:
        raise CLIError(f"malformed suite manifest {args.manifest!r}: {error}") from error

    total = len(suite)
    logger = get_logger("suite")

    def progress(event, name, index, total=total, result=None):
        if event == "start":
            logger.info("[%d/%d] %s ...", index + 1, total, name)
            return
        tag = "replayed" if event == "replay" else "done"
        stats = result.cache_stats
        detail = ""
        if stats:
            detail = (
                f" (hits={stats.get('hits', 0)}, misses={stats.get('misses', 0)})"
            )
        logger.info(
            "[%d/%d] %s %s in %.2fs%s",
            index + 1, total, name, tag, result.elapsed_seconds, detail,
        )

    if args.distributed and suite.cache_dir is None:
        raise CLIError(
            "--distributed shares work through the per-key store and "
            "requires a cache_dir (in the manifest or --cache-dir)"
        )
    if not args.distributed:
        # Scheduler knobs silently doing nothing would mislead: fail fast.
        if args.shard_members:
            raise CLIError("--shard-members requires --distributed")
        if args.lease_seconds is not None:
            raise CLIError("--lease-seconds requires --distributed")
        if args.max_attempts is not None:
            raise CLIError("--max-attempts requires --distributed")
        if args.stall_seconds is not None:
            raise CLIError("--stall-seconds requires --distributed")
    _check_flags(args)
    session_overrides = {}
    if args.batch_size is not None:
        session_overrides["batch_size"] = args.batch_size
    with Session.for_suite(suite, **session_overrides) as session:
        if args.distributed:
            from repro.sched import Coordinator  # local: keep CLI start-up light

            # A flag left unset keeps the Coordinator's own default.
            scheduler_config = {
                name: value
                for name, value in (
                    ("lease_seconds", args.lease_seconds),
                    ("max_attempts", args.max_attempts),
                    ("stall_seconds", args.stall_seconds),
                )
                if value is not None
            }
            coordinator = Coordinator(
                session,
                suite,
                shard_members=args.shard_members,
                **scheduler_config,
            )
            result = coordinator.run(progress=progress, resume=args.resume)
        else:
            result = session.run_suite(
                suite, resume=args.resume, progress=progress
            )
        print(result.to_json(indent=2) if args.json else result.summary())
    return 0


def _worker(args: argparse.Namespace) -> int:
    from repro.sched import Worker  # local: keep CLI start-up light

    _check_flags(args, store=True)

    logger = get_logger("worker")

    def log(event: str, task_id: str, detail: str) -> None:
        suffix = f" ({detail})" if detail else ""
        level = (
            logging.WARNING
            if event in ("retry", "failed", "lost", "error")
            else logging.INFO
        )
        logger.log(level, "%s %s%s", event, task_id, suffix)

    worker = Worker(
        args.cache_dir,
        suite=args.suite,
        worker_id=args.worker_id,
        lease_seconds=args.lease_seconds,
        poll_seconds=args.poll_seconds,
        max_attempts=args.max_attempts,
        stall_seconds=args.stall_seconds,
        n_jobs=args.n_jobs,
        backend=args.backend,
        batch_size=args.batch_size,
        log=log,
    )
    stats = worker.run(
        exit_when_done=args.exit_when_done,
        max_tasks=args.max_tasks,
        timeout=args.timeout,
    )
    served = ", ".join(stats.suites) if stats.suites else "none"
    logger.info(
        "worker %s: committed %d task(s) (%d stolen, %d lost, %d retried, "
        "%d failed) across suites: %s",
        worker.worker_id, stats.committed, stats.stolen, stats.lost,
        stats.retried, stats.failed, served,
    )
    return 0


def _queue_status(args: argparse.Namespace) -> int:
    from repro.sched import TaskQueue  # local: keep CLI start-up light

    _check_flags(args, store=True)
    queues = TaskQueue.discover(args.cache_dir, lease_seconds=args.lease_seconds)
    if args.suite is not None:
        queues = [queue for queue in queues if queue.suite_name == args.suite]
    reports = []
    for queue in queues:
        try:
            reports.append(queue.status())
        except FileNotFoundError:
            continue  # assembled and destroyed between discovery and read
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
        return 0
    if not reports:
        where = f" for suite {args.suite!r}" if args.suite else ""
        print(f"no queues{where} under {args.cache_dir}")
        return 0
    for report in reports:
        state = "complete" if report["complete"] else "in progress"
        print(f"{report['suite']} — {state}")
        print(f"  at {report['location']}")
        blocked = (
            f", {report['blocked']} blocked" if report["blocked"] else ""
        )
        print(
            f"  {report['tasks']} tasks: {report['pending']} pending, "
            f"{report['running']} running, {report['done']} done, "
            f"{report['failed']} failed{blocked}"
        )
        for lease in report["leases"]:
            extras = " EXPIRED" if lease["expired"] else ""
            if lease["worker"]:
                extras += f" worker={lease['worker']}"
            if lease["attempts"]:
                extras += f" attempts={lease['attempts']}"
            print(
                f"  running {lease['task']}: lease age "
                f"{lease['age_seconds']:.1f}s/"
                f"{report['lease_seconds']:.0f}s{extras}"
            )
        for failure in report["failed_tasks"]:
            print(
                f"  failed {failure['task']} "
                f"(attempts={failure['attempts']}): {failure['error']}"
            )
    return 0


def _gc(args: argparse.Namespace) -> int:
    _check_flags(args, store=True)
    stats = FileStore(args.cache_dir).gc(
        max_bytes=args.max_bytes, max_entries=args.max_entries
    )
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(
            f"removed {stats['removed_entries']} entries "
            f"({stats['removed_bytes']} bytes) and {stats['removed_tmp']} "
            f"leftover tmp files; {stats['entries']} entries "
            f"({stats['bytes']} bytes) remain"
        )
    return 0


def _serve(args: argparse.Namespace) -> int:
    from repro.serve import serve  # local: keep CLI start-up light

    _check_flags(args, store=True)
    session_config = {}
    if args.n_jobs is not None:
        session_config["n_jobs"] = args.n_jobs
    if args.backend is not None:
        session_config["backend"] = args.backend
    if args.batch_size is not None:
        session_config["batch_size"] = args.batch_size
    if args.max_concurrent_studies is not None:
        session_config["max_concurrent_studies"] = args.max_concurrent_studies
    try:
        serve(
            args.cache_dir,
            host=args.host,
            port=args.port,
            session_config=session_config,
            verbose=not args.quiet,
            shard_members=args.shard_members,
            participate=not args.no_participate,
            lease_seconds=args.lease_seconds,
            max_attempts=args.max_attempts,
            stall_seconds=args.stall_seconds,
        )
    except OSError as error:
        raise CLIError(
            f"cannot bind {args.host}:{args.port}: {error}"
        ) from error
    return 0


def _trace(args: argparse.Namespace) -> int:
    from repro.telemetry.tracing import (  # local: keep CLI start-up light
        TELEMETRY_DIR,
        filter_suite,
        load_spans,
        phase_aggregates,
        render_span_tree,
    )

    _check_flags(args, store=True)
    spans = load_spans(args.cache_dir)
    if args.suite is not None:
        spans = filter_suite(spans, args.suite)
    if args.json:
        print(
            json.dumps(
                {"spans": spans, "phases": phase_aggregates(spans)},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if not spans:
        where = f" for suite {args.suite!r}" if args.suite else ""
        print(
            f"no spans{where} under "
            f"{os.path.join(args.cache_dir, TELEMETRY_DIR)} "
            f"(telemetry disabled, or nothing ran with a cache_dir yet)"
        )
        return 0
    print(render_span_tree(spans))
    print()
    print(
        f"{'phase':<12} {'count':>6} {'errors':>7} "
        f"{'mean':>10} {'max':>10} {'total':>10}"
    )
    for row in phase_aggregates(spans):
        print(
            f"{row['phase']:<12} {row['count']:>6} {row['errors']:>7} "
            f"{row['mean_seconds']:>9.3f}s {row['max_seconds']:>9.3f}s "
            f"{row['total_seconds']:>9.3f}s"
        )
    return 0


def _report(args: argparse.Namespace) -> int:
    from repro.report import ReportError, list_report_suites, write_suite_reports

    _check_flags(args, store=True)
    try:
        if args.suite is not None:
            suite_names = [args.suite]
        else:
            suite_names = list_report_suites(args.cache_dir)
            if not suite_names:
                raise ReportError(
                    f"no suite completion records under {args.cache_dir!r}; "
                    f"run a suite with this cache dir first"
                )
        payloads = []
        for suite_name in suite_names:
            payload, written = write_suite_reports(args.cache_dir, suite_name)
            payloads.append(payload)
            if not args.json:
                print(
                    f"suite {suite_name}: {len(payload['members'])} member "
                    f"report(s), {len(written)} file(s) under "
                    f"{os.path.join(args.cache_dir, 'reports', suite_name)}"
                )
    except ReportError as error:
        raise CLIError(str(error)) from error
    if args.json:
        rendered = payloads[0] if args.suite is not None else payloads
        print(json.dumps(rendered, indent=2, sort_keys=True))
    return 0


def _list(args: argparse.Namespace) -> int:
    if args.json:
        print(
            json.dumps(
                [info.to_dict() for info in iter_studies()],
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    for info in iter_studies():
        print(f"{info.name:16s} {info.artefact:24s} {info.description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            setup_logging(getattr(args, "log_level", None))
        except ValueError as error:
            raise CLIError(str(error)) from error
        return args.handler(args)
    except CLIError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
