"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {cold,warm,fleet} [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--inject-step-delay SECONDS]

Run it from the root of a source checkout: the program runs from
``src/`` (nothing is installed), and without ``src/repro`` the benchmark
exits with status 2 and prints no result.  The workload's suite manifest
is generated from ``--seed`` (manifests.py) and handed to the program.
Metric names and units are those listed in BENCHMARK.json.

BENCHMARK.json lists cold and fleet.  warm stays runnable here, for
selftest.py and by hand, but out of the benchmark: its replays are
file-system heavy, and on a shared 2-vCPU host they were the least steady
workload, spreading 0.4 to 0.5 of their median across runs of one code.

A run repeats the workload in fresh interpreters (child.py) while
another repetition still fits in ``--seconds``, at least three times.
cold's and warm's repetitions are pinned to each CPU in turn.  A shared
host slows a CPU for tens of seconds at a time, so the times below are
reported as their fastest repetition, the one that host touched least,
and ``peak_rss_mb`` as its median:

``setup_s``      spawn of the interpreter until the workload is ready:
                 imports, session and store (warm also fills its store,
                 fleet also waits for the service's /v1/health)
``run_s``        wall clock of the workload's fixed work
``cpu_s``        user+system CPU over the run, of every process involved
``peak_rss_mb``  largest resident set of any process of the repetition

With ``--trace 1`` the first half of the window runs untraced
repetitions and the rest traced ones (tracing.py).  The per-layer metrics
and the time budget come from the fastest traced repetition;
``trace.overhead_ratio`` is its ``run_s`` over the fastest untraced one,
and ``error_rate`` is the failed share of the run's operations.

Every repetition's outputs are checked: cold's member rows must be
bitwise-identical across repetitions; warm's replay and resume rows must
equal the rows of its fill, with nothing refit and every member resumed;
fleet's served rows must equal those of an in-process cold repetition of
its own manifest and seed, run first.  An operation is one suite-member
result (one HTTP request in fleet); it fails when it raises, gets a
non-2xx reply or returns rows that differ.  The last line of stdout is ``{"correct",
"attempted", "failed", "metrics"}``; the exit status is 1 when any
operation failed.

``--out`` appends the full record (host, every repetition, the span
table) to a JSON-lines file, for compare.py.  ``--inject-step-delay``
busy-waits inside every ``Optimizer.step`` of the in-process workloads;
selftest.py uses it to check that the benchmark notices a slower kernel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import manifests
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
#: The benchmark's scratch space in the checkout: stores, logs, spans.
WORK = os.path.join(ROOT, ".perfbench")

MANIFESTS = {
    "cold": manifests.cold_manifest,
    "warm": manifests.warm_manifest,
    "fleet": manifests.fleet_manifest,
}
WORKLOADS = tuple(MANIFESTS)
MIN_REPS = 3
#: Store replays in one warm repetition: its fixed work.
WARM_REPLAYS = 40
#: A repetition still running after this long is killed, and fails.
REP_TIMEOUT = 60.0
#: No repetition starts after this long, whatever ``--seconds`` asks.
MAX_WALL_S = 90.0
#: End-to-end metrics reported as their fastest repetition; the others
#: are reported as their median.
FASTEST = ("setup_s", "run_s", "cpu_s")


def summarize(name, values):
    """A run's value of end-to-end metric ``name`` (see the module doc)."""
    return min(values) if name in FASTEST else statistics.median(values)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=manifests.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=55.0, help="measuring window (default 55)"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: report the per-layer metrics of a traced run",
    )
    parser.add_argument(
        "--out", help="append the full result record to this JSON-lines file"
    )
    parser.add_argument(
        "--inject-step-delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="busy-wait this long in every Optimizer.step (sensitivity self-test)",
    )
    return parser.parse_args(argv)


def host_record():
    """What the numbers were measured on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas_name = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "git_commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_rep(workload, config_path, log_path, env, cpu=None):
    """One repetition in a fresh interpreter, pinned to ``cpu`` when one
    is given: the child's result with ``setup_s`` added and ``ok`` set, or
    ``{"ok": False}`` when it crashed, timed out or printed no result;
    ``wall_s`` is set on both."""
    start = time.monotonic()
    command = [sys.executable, CHILD, workload, config_path]
    command.append("-" if cpu is None else str(cpu))
    outcome = _run_rep(command, log_path, env, start)
    outcome["wall_s"] = time.monotonic() - start
    return outcome


def _run_rep(command, log_path, env, start):
    with open(log_path, "ab") as log:
        child = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=log,
            env=env,
            cwd=ROOT,
            start_new_session=True,  # its own process group, killed as one
        )
    watchdog = threading.Timer(REP_TIMEOUT, _kill_group, (child.pid,))
    watchdog.start()
    setup_s = last = None
    try:
        for raw in child.stdout:
            line = raw.decode("utf-8", "replace").strip()
            if line == "READY" and setup_s is None:
                setup_s = time.monotonic() - start
            elif line:
                last = line
    except BaseException:
        _kill_group(child.pid)
        raise
    finally:
        code = child.wait()
        watchdog.cancel()
        child.stdout.close()
        _kill_group(child.pid)  # whatever the repetition left running
    try:
        result = json.loads(last) if last else None
    except ValueError:
        result = None
    if code != 0 or setup_s is None or not isinstance(result, dict):
        return {"ok": False}
    return dict(result, ok=True, setup_s=setup_s)


def measure(args, workdir, log_path, env):
    """Run every repetition: ``(manifest, reference, untraced, traced)``."""
    manifest = MANIFESTS[args.workload](args.seed)
    config = {
        "manifest": manifest,
        "workdir": workdir,
        "log": log_path,
        "replays": WARM_REPLAYS,
        "step_delay": args.inject_step_delay,
        "spans_path": os.path.join(WORK, "spans", f"{args.workload}.jsonl"),
    }
    configs = {}
    for trace in (False, True):
        configs[trace] = os.path.join(workdir, f"config-{int(trace)}.json")
        with open(configs[trace], "w", encoding="utf-8") as handle:
            json.dump(dict(config, trace=trace), handle)
    started = time.monotonic()
    # fleet's served rows are checked against an in-process (cold path)
    # run of its manifest, made first, inside the window.
    reference = None
    if args.workload == "fleet":
        reference = run_rep("cold", configs[False], log_path, env)
    # cold and warm run in one thread: their repetitions are pinned to the
    # CPUs in turn, so a run samples every CPU it may use, whichever one
    # the host slows at the time.  fleet's processes share all of them.
    cpus = [None] if args.workload == "fleet" else sorted(os.sched_getaffinity(0))

    def rep(config, index):
        return run_rep(args.workload, config, log_path, env, cpus[index % len(cpus)])

    def more(reps, until, least):
        """Start another repetition while too few ran, or while one as
        long as the longest so far still ends inside the window."""
        if reps and not reps[-1]["ok"]:
            return False  # a failed repetition already settles the verdict
        if len(reps) < least:
            return True
        ends = time.monotonic() + max(done["wall_s"] for done in reps)
        return ends <= until and ends - started <= MAX_WALL_S

    untraced, traced = [], []
    untraced_until = started + (args.seconds / 2 if args.trace else args.seconds)
    while more(untraced, untraced_until, MIN_REPS):
        untraced.append(rep(configs[False], len(untraced)))
    if args.trace and untraced[-1]["ok"]:
        while more(traced, started + args.seconds, 1):
            traced.append(rep(configs[True], len(traced)))
    return manifest, reference, untraced, traced


def check(workload, members, reference, reps):
    """``(attempted, failed)`` operations over every repetition."""
    attempted = failed = 0
    expected = None
    if workload == "fleet":
        expected = reference["digests"] if reference and reference["ok"] else {}
    for rep in reps:
        if not rep["ok"]:
            lost = 1 if workload == "fleet" else len(members)
            attempted += lost
            failed += lost
            continue
        attempted += rep["attempted"]
        failed += rep["failed"]
        digests = rep["digests"]
        if workload == "fleet":
            failed += digests != expected  # the result request's rows differ
            continue
        if expected is None:
            expected = digests
        if workload == "warm":
            attempted += len(members)  # the fill's member results
        failed += sum(
            name not in digests or digests[name] != expected.get(name)
            for name in members
        )
    return attempted, failed


def _tail(path, lines=30):
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])
    except OSError:
        return ""


def _print_reps(untraced, traced, names):
    for index, rep in enumerate(untraced + traced, 1):
        kind = "untraced" if index <= len(untraced) else "traced"
        if not rep["ok"]:
            print(f"# rep {index} ({kind}): failed")
            continue
        values = " ".join(f"{name}={rep[name]:.4f}" for name in names)
        notes = f" {json.dumps(rep['notes'], sort_keys=True)}" if rep.get("notes") else ""
        print(
            f"# rep {index} ({kind}): {values} attempted={rep['attempted']} "
            f"failed={rep['failed']}{notes}"
        )


def _terminate(signum, frame):
    """SIGTERM unwinds like an exception, so the repetition running is
    killed with its process group and the scratch space is removed."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: no src/repro under {ROOT}; run from the root of a "
            "source checkout",
            file=sys.stderr,
        )
        return 2
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = [entry["name"] for entry in spec["end_to_end"]]
    host = host_record()
    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("# host " + json.dumps(host, sort_keys=True))
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    log_path = os.path.join(workdir, "children.log")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH")))
    )
    try:
        manifest, reference, untraced, traced = measure(args, workdir, log_path, env)
        members = [entry["name"] for entry in manifest["specs"]]
        attempted, failed = check(args.workload, members, reference, untraced + traced)
        log_tail = _tail(log_path) if failed else ""
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_reps(untraced, traced, end_to_end)
    if log_tail:
        print("# stderr of the repetitions, last lines:")
        print("\n".join(f"#   {line}" for line in log_tail.splitlines()))
    good = [rep for rep in untraced if rep["ok"]]
    summary = {}
    for entry in spec["end_to_end"] if good else ():
        name = entry["name"]
        summary[name] = summarize(name, [rep[name] for rep in good])
        print(
            f"# {name} = {summary[name]:.6g} {entry['unit']} "
            f"({'fastest' if name in FASTEST else 'median'} of {len(good)} "
            f"untraced repetitions; median "
            f"{statistics.median(rep[name] for rep in good):.6g})"
        )
    values, listed, spans = summary, spec["end_to_end"], None
    if args.trace:
        values, listed = {}, spec["per_layer"]
        finished = [rep for rep in traced if rep["ok"]]
        if finished and good:
            pick = min(finished, key=lambda rep: rep["run_s"])
            values = dict(pick["layers"])
            values["trace.overhead_ratio"] = pick["run_s"] / summary["run_s"]
            values["error_rate"] = failed / attempted
            spans = pick["spans"]
            print(
                tracing.render_budget(
                    pick["budget"],
                    run_s=pick["run_s"],
                    overhead_ratio=values["trace.overhead_ratio"],
                    title=f"{args.workload}, seed {args.seed}",
                )
            )
    metrics = {}
    if values:
        metrics = {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in listed
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        record = dict(
            result,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            inject_step_delay=args.inject_step_delay,
            host=host,
            untraced_run_s=summary.get("run_s"),
            reps=[
                {key: rep.get(key) for key in ("ok", *end_to_end, "attempted", "failed")}
                for rep in untraced + traced
            ],
            spans=spans,
        )
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
