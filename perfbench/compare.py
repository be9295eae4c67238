"""Paired verdict between two sets of benchmark results.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Both files hold the records run.py appends with ``--out``; traced records
are skipped.  Runs pair up per workload in file order, so run the two
sides interleaved, with the same seeds, alternating which side goes
first.  For every workload and end-to-end metric the report gives each
side's median and quartiles, the share of pairs the change won (ties
count for neither), and P(change better) from the paper's
probability-of-outperforming test
(``repro.core.significance.probability_of_outperforming_test``, gamma
0.75) with its conclusion label.

The verdict column is stricter: ``better`` or ``worse`` only when the
test concludes significant and meaningful in that direction, that side
won at least nine pairs in ten, and the medians differ by more than the
parent's own interquartile range; otherwise ``-``.  The report sets no
bound; the bounds in BENCHMARK.json do.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GAMMA = 0.75
#: Share of the pairs a side must win before the verdict names it.
WIN_SHARE = 0.9


def load(path):
    """The result records of one JSON-lines file."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _better(metric):
    """``"lower"`` or ``"higher"``, from BENCHMARK.json (lower when absent)."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            entries = json.load(handle)["end_to_end"]
    except (OSError, ValueError, KeyError):
        return "lower"
    return next((e["better"] for e in entries if e["name"] == metric), "lower")


def _quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(parents, changes):
    """One row per workload and end-to-end metric (see the module doc)."""
    import numpy as np

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core.significance import probability_of_outperforming_test

    rows = []
    untraced = [record for record in parents + changes if not record["trace"]]
    for workload in dict.fromkeys(record["workload"] for record in untraced):
        side_a = [r for r in parents if r["workload"] == workload and not r["trace"]]
        side_b = [r for r in changes if r["workload"] == workload and not r["trace"]]
        pairs = min(len(side_a), len(side_b))
        if not pairs:
            continue
        for metric, entry in side_a[0]["metrics"].items():
            a = [record["metrics"][metric]["value"] for record in side_a[:pairs]]
            b = [record["metrics"][metric]["value"] for record in side_b[:pairs]]
            sign = -1.0 if _better(metric) == "lower" else 1.0
            won = sum(sign * (y - x) > 0 for x, y in zip(a, b)) / pairs
            lost = sum(sign * (y - x) < 0 for x, y in zip(a, b)) / pairs
            up = probability_of_outperforming_test(
                sign * np.asarray(b), sign * np.asarray(a), gamma=GAMMA, random_state=0
            )
            down = probability_of_outperforming_test(
                sign * np.asarray(a), sign * np.asarray(b), gamma=GAMMA, random_state=0
            )
            qa, qb = _quartiles(a), _quartiles(b)
            apart = abs(qb[1] - qa[1]) > qa[2] - qa[0]
            verdict = "-"
            if up.meaningful and won >= WIN_SHARE and apart:
                verdict = "better"
            elif down.meaningful and lost >= WIN_SHARE and apart:
                verdict = "worse"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "unit": entry["unit"],
                    "pairs": pairs,
                    "parent": qa,
                    "change": qb,
                    "won": won,
                    "p_better": up.p_a_gt_b,
                    "ci": (up.ci_low, up.ci_high),
                    "conclusion": up.conclusion.value,
                    "verdict": verdict,
                }
            )
    return rows


def render(rows):
    """The rows as a markdown table."""
    lines = [
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] "
        "| pairs | change won | P(change better) [95% CI] | conclusion | verdict |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        a, b, (low, high) = row["parent"], row["change"], row["ci"]
        lines.append(
            f"| {row['workload']} | {row['metric']} ({row['unit']}) "
            f"| {a[1]:.6g} [{a[0]:.6g}, {a[2]:.6g}] "
            f"| {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}] "
            f"| {row['pairs']} | {row['won']:.2f} "
            f"| {row['p_better']:.2f} [{low:.2f}, {high:.2f}] "
            f"| {row['conclusion']} | {row['verdict']} |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/compare.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("parent", help="result records of the parent (JSON lines)")
    parser.add_argument("change", help="result records of the change (JSON lines)")
    args = parser.parse_args(argv)
    print(render(compare(load(args.parent), load(args.change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
