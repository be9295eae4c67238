"""Sensitivity self-test of the benchmark.

    python3 perfbench/selftest.py [--pairs N] [--seed S]

Injects a busy-wait into ``Optimizer.step`` through the benchmark's own
files (run.py ``--inject-step-delay``), sized to about 20% of cold's
``run_s``, and checks that:

1. the traced cold run shows the delay in ``pipelines.optimizer_step.s``;
2. the paired comparison (compare.py) of N interleaved pairs calls
   cold's ``run_s`` worse;
3. warm's ``run_s`` reads unchanged (warm fits nothing);
4. without the injection, parent against parent, nothing on cold is
   called better or worse.

Every benchmark run is short (``--seconds 1``: three repetitions); the
records land in ``.perfbench/selftest/``.  Exits 0 when every check
holds.  Takes about a minute per pair on a 2-core host.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(ROOT, ".perfbench", "selftest")
#: The injected delay, as a share of cold's untraced run_s.
INJECTED_SHARE = 0.2


def bench(workload, seed, out, *, trace=0, delay=0.0):
    """One short benchmark run; returns its full record."""
    command = [
        sys.executable, RUN, "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--out", out,
    ]
    if delay:
        command += ["--inject-step-delay", repr(delay)]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=False, timeout=600
    )
    if done.returncode != 0:
        sys.exit(
            f"benchmark run failed: {' '.join(command)}\n"
            f"{done.stdout[-4000:]}{done.stderr[-4000:]}"
        )
    return compare.load(out)[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/selftest.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--pairs", type=int, default=10, help="paired runs (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    path = {
        name: os.path.join(OUT, f"{name}.jsonl")
        for name in ("calibration", "parent", "change", "again")
    }

    base = bench("cold", args.seed, path["calibration"], trace=1)
    steps = base["spans"]["pipelines.optimizer_step"]["calls"]
    delay = INJECTED_SHARE * base["untraced_run_s"] / steps
    injected = delay * steps
    slowed = bench("cold", args.seed, path["calibration"], trace=1, delay=delay)

    def layer(record, name):
        return record["metrics"][name]["value"]

    # The two traced runs may meet a faster or slower host; the forward and
    # backward pass, untouched by the injection, measures that drift, and
    # the parent's optimizer time is scaled by it before taking the excess.
    drift = layer(slowed, "pipelines.loss_and_gradients.s") / layer(
        base, "pipelines.loss_and_gradients.s"
    )
    shown = layer(slowed, "pipelines.optimizer_step.s") - drift * layer(
        base, "pipelines.optimizer_step.s"
    )
    print(
        f"injecting {delay * 1e6:.2f} us into each of {steps} Optimizer.step "
        f"calls: {injected:.3f} s per cold run",
        flush=True,
    )

    for pair in range(args.pairs):
        seed = args.seed + pair
        sides = [("parent", 0.0), ("change", delay)]
        if pair % 2:
            sides.reverse()
        for workload in ("cold", "warm"):
            for name, side_delay in sides:
                bench(workload, seed, path[name], delay=side_delay)
        bench("cold", seed, path["again"])
        print(f"pair {pair + 1}/{args.pairs} done", flush=True)

    parents = compare.load(path["parent"])
    injected_rows = compare.compare(parents, compare.load(path["change"]))
    quiet_rows = compare.compare(
        [record for record in parents if record["workload"] == "cold"],
        compare.load(path["again"]),
    )
    print("\nParent against change (injected delay):")
    print(compare.render(injected_rows))
    print("\nParent against parent (no injection):")
    print(compare.render(quiet_rows))
    verdict = {(row["workload"], row["metric"]): row["verdict"] for row in injected_rows}
    checks = [
        (
            f"the delay shows in pipelines.optimizer_step.s "
            f"(+{shown:.3f} s of {injected:.3f} s injected)",
            shown >= 0.8 * injected,
        ),
        (
            "cold.run_s is called worse with the injection",
            verdict.get(("cold", "run_s")) == "worse",
        ),
        (
            "warm.run_s reads unchanged with the injection",
            verdict.get(("warm", "run_s")) == "-",
        ),
        (
            "nothing on cold is called better or worse without the injection",
            all(row["verdict"] == "-" for row in quiet_rows),
        ),
    ]
    print()
    for text, held in checks:
        print(f"{'PASS' if held else 'FAIL'}  {text}")
    return 0 if all(held for _, held in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
