#!/usr/bin/env python3
"""Compares two sets of benchmark runs against BENCHMARK.json's bounds.

Each directory holds run records written by `perfbench/run.py --out DIR`
(one JSON file per run).  For every workload and end-to-end metric the
script prints each set's median, its interquartile range (q3 - q1, as
statistics.quantiles(values, n=4) gives them) and that range as a share of
the median.  It exits 1 when the two medians of a metric differ by more
than the metric's `bound` (as a share of the first median), or when a run
reported a wrong answer.

    python3 perfbench/repeat_check.py runs/a runs/b
    python3 perfbench/repeat_check.py runs/a          # one set: spreads only

Only untraced (--trace 0) records are compared; traced runs carry the
per-layer metrics, which have no bound.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{workload: {metric: [values]}} over the directory's untraced runs."""
    runs = {}
    wrong = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if record["stamp"]["trace"] != 0:
            continue
        if not record["correct"] or record["failed"] != 0:
            wrong.append(path)
        metrics = runs.setdefault(record["stamp"]["workload"], {})
        for name, m in record["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return runs, wrong


def summary(values):
    """(median, iqr, iqr / median) of a list of run values."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return med, iqr, (iqr / med if med else float("inf"))


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [load_runs(d) for d in argv[1:]]
    ok = True
    for (_, wrong), d in zip(sets, argv[1:]):
        for path in wrong:
            print(f"{path}: wrong answers reported")
            ok = False

    header = f"{'workload':<14} {'metric':<16} {'bound':>6}"
    for i in range(len(sets)):
        header += f" {'median' + str(i + 1):>12} {'iqr' + str(i + 1):>10}"
        header += f" {'iqr/med':>8}"
    if len(sets) == 2:
        header += f" {'diff':>8}"
    print(header)
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            name = m["name"]
            row = f"{w['name']:<14} {name:<16} {m['bound']:>6.2f}"
            meds = []
            for runs, _ in sets:
                values = runs.get(w["name"], {}).get(name, [])
                if not values:
                    row += f" {'-':>12} {'-':>10} {'-':>8}"
                    continue
                med, iqr, rel = summary(values)
                meds.append(med)
                row += f" {med:>12.6g} {iqr:>10.4g} {rel:>8.2%}"
            verdict = ""
            if len(sets) == 2:
                if len(meds) != 2:
                    verdict = "  MISSING"
                    ok = False
                else:
                    diff = (meds[1] - meds[0]) / meds[0]
                    row += f" {diff:>+8.2%}"
                    if abs(diff) > m["bound"]:
                        verdict = "  FAIL"
                        ok = False
            print(row + verdict)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
