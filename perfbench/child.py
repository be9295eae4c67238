"""One repetition of a benchmark workload, in a fresh interpreter.

run.py starts ``python3 perfbench/child.py <workload> <config.json> <cpu>``
for every repetition, so each one pays interpreter start and imports
again, as a restarted CLI or a new worker would; ``<cpu>`` pins it to
that CPU, ``-`` leaves it free.  The child prints ``READY``
once set up (run.py times set-up from the spawn to that line), runs the
workload's fixed work, and prints one JSON line: ``run_s``, ``cpu_s``,
``peak_rss_mb``, the operations attempted and failed, a digest of each
suite member's rows and, on a traced repetition, the per-layer metrics,
the time budget and a table of calls and seconds per span name.

Per workload:

* ``cold``: set-up imports ``repro``, validates the manifest against the
  study registry and opens ``Session.for_suite(..., n_jobs=1,
  batch_size=1)`` (the CLI default) on an empty per-key store.  The run
  is ``run_suite`` until it returns.
* ``warm``: set-up also fills the store with the manifest.  The run
  replays it ``replays`` times, each through a fresh ``Session`` (empty
  in-memory cache, so every lookup reads the FileStore) followed by a
  ``resume=True`` pass, closing the session after both.
* ``fleet``: set-up starts ``repro serve <store> --no-participate`` and
  waits for ``/v1/health``.  The run starts one ``repro worker
  --exit-when-done --n-jobs 2 --batch-size 8`` through launch_worker.py,
  POSTs the manifest to ``/v1/suites``, polls ``/v1/jobs/<id>`` every
  ``POLL_SECONDS`` until the job settles and GETs its result; it ends
  when the result is in hand.  This process is the only HTTP client, a
  closed loop holding one connection at a time.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH_WORKER = os.path.join(HERE, "launch_worker.py")
#: Client poll interval while the fleet job runs.
POLL_SECONDS = 0.05
#: The fleet worker's knobs: two pool processes, batches of eight.
WORKER_ARGS = ("--n-jobs", "2", "--batch-size", "8")
#: Bound on one fleet job; the worker gets the same ``--timeout``.
JOB_TIMEOUT = 45.0
HTTP_TIMEOUT = 30.0
TERMINAL_STATES = ("done", "failed", "cancelled")
clock = time.monotonic


def ready() -> None:
    print("READY", flush=True)


def member_digests(payload):
    """sha256 of each member's rows, by member name.  Rows serialize with
    sorted keys and shortest-repr floats, so equal digests mean
    bitwise-equal rows."""
    return {
        entry["name"]: hashlib.sha256(
            json.dumps(entry["rows"], sort_keys=True).encode("utf-8")
        ).hexdigest()
        for entry in payload["results"]
    }


def suite_digests(result):
    return member_digests(json.loads(result.to_json()))


def own_cpu_s() -> float:
    """User+system CPU of this process and of every child it has reaped
    (their reaped descendants included)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def proc_cpu_s(pid: int) -> float:
    """User+system CPU of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="utf-8", errors="replace") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of proc(5); fields[0] is field 3.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(*pids: int) -> float:
    """Largest resident-set high-water mark of this process, of any
    reaped descendant and of the live ``pids``, in MiB."""
    kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    kib = max(kib, int(line.split()[1]))
    return kib / 1024.0


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def _suite(config, workdir):
    """Import the program and build the manifest's suite on an empty
    store.  Validation resolves every member in the study registry, which
    imports every study driver, so import cost lands in set-up."""
    import repro  # noqa: F401  (api, core, engine, pipelines)
    from repro.api import SuiteSpec

    suite = SuiteSpec.from_dict(config["manifest"]).replace(
        cache_dir=os.path.join(workdir, "store")
    )
    suite.validate()
    return suite


def _session(suite):
    from repro.api import Session

    return Session.for_suite(suite, n_jobs=1, batch_size=1)


def _instrument(config):
    """Inject the self-test's ``Optimizer.step`` delay when asked for, and
    install the span wrappers on a traced repetition; returns the
    recorder (``None`` when untraced)."""
    if not (config["trace"] or config["step_delay"]):
        return None
    import tracing

    if config["step_delay"]:
        tracing.inject_step_delay(config["step_delay"])
    if not config["trace"]:
        return None
    recorder = tracing.Recorder()
    tracing.install(recorder)
    return recorder


class _Run:
    """Times the run (wall clock, CPU of this process and its reaped
    children) and records spans inside it on a traced repetition."""

    def __init__(self, config, recorder):
        self.config = config
        self.recorder = recorder

    def __enter__(self):
        self.cpu_s = own_cpu_s()
        if self.recorder is not None:
            self.recorder.enabled = True
        self.start = clock()
        return self

    def __exit__(self, *exc_info):
        self.run_s = clock() - self.start
        if self.recorder is not None:
            self.recorder.enabled = False
        self.cpu_s = own_cpu_s() - self.cpu_s

    def result(self, **outcome):
        """The repetition's result, with the layers of a traced run."""
        result = dict(
            outcome, run_s=self.run_s, cpu_s=self.cpu_s, peak_rss_mb=peak_rss_mb()
        )
        if self.recorder is not None:
            import tracing

            stats = tracing.aggregate(self.recorder.spans)
            values, budget = tracing.layer_metrics(stats, run_s=self.run_s)
            self.recorder.dump(self.config["spans_path"], {"run_s": self.run_s})
            result.update(
                layers=values, budget=budget, spans=tracing.span_table(stats)
            )
        return result


def cold(config, workdir):
    suite = _suite(config, workdir)
    recorder = _instrument(config)
    session = _session(suite)
    ready()
    with _Run(config, recorder) as run:
        outcome = session.run_suite(suite)
    session.close()
    return run.result(
        attempted=len(suite), failed=0, digests=suite_digests(outcome)
    )


def warm(config, workdir):
    suite = _suite(config, workdir)
    recorder = _instrument(config)
    with _session(suite) as session:
        fill = suite_digests(session.run_suite(suite))
    ready()
    passes = []
    with _Run(config, recorder) as run:
        for _ in range(config["replays"]):
            with _session(suite) as session:
                passes.append(session.run_suite(suite))
                passes.append(session.run_suite(suite, resume=True))
    failed = 0
    for index, outcome in enumerate(passes):
        digests = suite_digests(outcome)
        for name in suite.names:
            member = outcome.results[name]
            if index % 2:  # resume pass: served from the completion record
                served = member.replayed
            else:  # store replay: every measurement read back, none refit
                served = member.cache_stats.get("misses", 0) == 0
            if digests.get(name) != fill.get(name) or not served:
                failed += 1
    return run.result(
        attempted=len(passes) * len(suite), failed=failed, digests=fill
    )


# ----------------------------------------------------------------------
# The fleet: service, worker and this process as the HTTP client
# ----------------------------------------------------------------------
class Client:
    """JSON over HTTP, one connection at a time.  Counts the requests it
    makes and the ones that fail (no reply, or a non-2xx status)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.attempted = 0
        self.failed = 0

    def request(self, method, path, payload=None, *, count=True):
        """Send one request; returns ``(ok, body, milliseconds)``."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        start = clock()
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=HTTP_TIMEOUT
        )
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            status, data = response.status, response.read()
        except (OSError, http.client.HTTPException):
            status, data = None, b""
        finally:
            connection.close()
        elapsed_ms = (clock() - start) * 1000.0
        ok = status is not None and 200 <= status < 300
        if count:
            self.attempted += 1
            self.failed += not ok
        try:
            parsed = json.loads(data) if data else None
        except ValueError:
            parsed = None
        return ok, parsed, elapsed_ms


def _listening(service):
    """``(host, port)`` from the service's start-up line."""
    for raw in service.stdout:
        match = re.search(rb"listening on http://([^\s:/]+):(\d+)", raw)
        if match:
            return match.group(1).decode("ascii"), int(match.group(2))
    raise RuntimeError("repro serve exited before listening")


def _stop(process, *, interrupt):
    """Wait for ``process`` to end, after a SIGINT (the service's graceful
    shutdown) when ``interrupt``; kill it after 30 s."""
    if interrupt and process.poll() is None:
        process.send_signal(signal.SIGINT)
    try:
        process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()


def tail_percentile(samples, beyond=10):
    """The highest percentile with at least ``beyond`` samples above it,
    as ``(value, percentile, sample count)``; ``None`` with too few."""
    if len(samples) <= beyond:
        return None
    ordered = sorted(samples)
    index = len(ordered) - beyond - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def fleet(config, workdir):
    store = os.path.join(workdir, "store")
    os.makedirs(store)
    spans_path = os.path.join(workdir, "worker-spans.jsonl") if config["trace"] else "-"
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    with open(config["log"], "ab") as log:
        service = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", store,
             "--no-participate", "--port", "0", "--quiet"],
            stdout=subprocess.PIPE,
            stderr=log,
            env=env,
        )
        worker = None
        try:
            client = Client(*_listening(service))
            deadline = clock() + HTTP_TIMEOUT
            while not client.request("GET", "/v1/health", count=False)[0]:
                if clock() > deadline:
                    raise RuntimeError("repro serve never answered /v1/health")
                time.sleep(0.02)
            ready()
            cpu_s, service_cpu_s = own_cpu_s(), proc_cpu_s(service.pid)
            start = spawned_at = clock()
            worker = subprocess.Popen(
                [sys.executable, LAUNCH_WORKER, spans_path, store,
                 "--exit-when-done", *WORKER_ARGS, "--timeout", str(JOB_TIMEOUT)],
                stdout=subprocess.DEVNULL,
                stderr=log,
                env=env,
            )
            ok, job, submit_ms = client.request("POST", "/v1/suites", config["manifest"])
            if not ok:
                raise RuntimeError(f"suite submission refused: {job}")
            polls = []
            while clock() - start < JOB_TIMEOUT:
                time.sleep(POLL_SECONDS)
                ok, status, elapsed_ms = client.request("GET", f"/v1/jobs/{job['job']}")
                polls.append(elapsed_ms)
                if ok and (status or {}).get("state") in TERMINAL_STATES:
                    break
            done_at = clock()
            ok, outcome, result_ms = client.request(
                "GET", f"/v1/jobs/{job['job']}/result"
            )
            run_s = clock() - start
            _stop(worker, interrupt=False)
            cpu_s = own_cpu_s() - cpu_s + proc_cpu_s(service.pid) - service_cpu_s
            rss = peak_rss_mb(service.pid)
        finally:
            if worker is not None and worker.poll() is None:
                worker.kill()
                worker.wait()
            _stop(service, interrupt=True)
    served = (outcome or {}).get("result") if ok else None
    tail = tail_percentile(polls)
    result = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss,
        "attempted": client.attempted,
        "failed": client.failed,
        "digests": member_digests(served) if served else {},
        "notes": {"polls": len(polls), "poll_tail_percentile": tail and tail[1]},
    }
    if not config["trace"]:
        return result
    import tracing

    header, spans = tracing.load(spans_path)
    commits = [span[2] for span in spans if span and span[0] == "sched.commit" and span[4]]
    last_commit = max(commits, default=done_at)
    stats = tracing.aggregate(spans, window=(header["ready_at"], last_commit))
    ready_s = header["ready_at"] - spawned_at
    done_lag_s = done_at - last_commit
    extras = {
        "sched.worker_import_s": header["import_s"],
        "sched.worker_ready_s": ready_s,
        "sched.done_lag_s": done_lag_s,
        "serve.requests": client.attempted,
        "serve.errors": client.failed,
        "serve.submit_ms": submit_ms,
        "serve.poll_p50_ms": statistics.median(polls) if polls else 0.0,
        "serve.poll_tail_ms": tail[0] if tail else 0.0,
        "serve.result_ms": result_ms,
    }
    # The budget follows the path to the result: the worker's start (the
    # submission overlaps it), its spans up to its last commit, the lag
    # until this client saw the job done, and the result fetch.  Polls
    # overlap the worker, so they stay out of it.
    path = {
        tracing.SCHED_LAYER: ready_s + done_lag_s,
        tracing.SERVE_LAYER: result_ms / 1000.0,
    }
    values, budget = tracing.layer_metrics(
        stats, run_s=run_s, extras=extras, path_seconds=path
    )
    os.makedirs(os.path.dirname(config["spans_path"]), exist_ok=True)
    shutil.copyfile(spans_path, config["spans_path"])
    result.update(layers=values, budget=budget, spans=tracing.span_table(stats))
    return result


WORKLOADS = {"cold": cold, "warm": warm, "fleet": fleet}


def main(argv) -> int:
    workload, config_path, cpu = argv
    if cpu != "-":
        os.sched_setaffinity(0, {int(cpu)})
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=config["workdir"])
    try:
        result = WORKLOADS[workload](config, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
