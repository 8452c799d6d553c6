#!/usr/bin/env python3
"""Compare fresh Google-Benchmark JSON against the committed baselines.

Usage:
    bench_compare.py --baselines baselines --fresh build/release \
        [--qps-slack 0.5] [--summary]

For every `BENCH_<harness>.json` present in both directories, benchmarks
are matched by name and their counters split in two classes:

  * Deterministic counters (faults, NPE, NOE, rescored, ...) come from
    seeded datasets and seeded workloads, so they are exactly reproducible
    on any machine: any difference is an algorithmic change, and this
    script exits non-zero — the CI bench job treats that as a hard gate.
    A baseline counter missing from the fresh run also fails (a harness
    that silently stopped reporting a counter must not pass).

  * Timing counters (qps) are hardware-dependent: a fresh qps below
    (1 - slack) of the baseline prints an advisory warning, never a
    failure — CI machines and the baseline box share no clock.

Benchmarks or files present on one side only are reported and skipped:
the gate never blocks adding a new harness or a new benchmark, only
changing what an existing one computes.

When anything failed, the last line tallies the failures per counter
(e.g. `failures by counter: vis_tests=125`).

With --summary, the per-benchmark FAIL lines give way to one line per
baseline file and moved exact counter: how many of the file's benchmarks
carrying the counter moved, and the median, minimum and maximum of
fresh/baseline over those carrying it (a zero baseline is left out of the
ratios).  A baseline regeneration states its moves with it.  The exit
status is the same as without it.
"""

import argparse
import collections
import json
import pathlib
import statistics
import sys

# Counter keys whose values must match the baseline bit-for-bit.  Keep in
# sync with the harness counters documented in baselines/README.md; every
# entry here is derived from seeded data, never from the clock.
EXACT_COUNTERS = [
    "faults",
    "hits",
    "pages",
    "NPE",
    "NOE",
    "SVG",
    "vis_tests",
    "seed_tests",
    "settled",
    "reuse_hits",
    "shards",
    "tick_warm",
    "tick_frontier",
    "store_hits",
    "splits",
    "l1_hits",
    "crossings",
]


def index_benchmarks(path):
    """name -> benchmark entry, skipping aggregate (mean/median/...) rows."""
    with open(path) as f:
        doc = json.load(f)
    return {
        b["name"]: b
        for b in doc.get("benchmarks", [])
        if b.get("run_type") != "aggregate" and not b.get("error_occurred")
    }


def summary_lines(base_path, fresh_path):
    """One line per exact counter that moved in one baseline/fresh pair:
    how many benchmarks moved, and fresh/baseline over every benchmark
    carrying the counter (zero baselines left out)."""
    base = index_benchmarks(base_path)
    fresh = index_benchmarks(fresh_path)
    shared = sorted(set(base) & set(fresh))
    lines = []
    for counter in EXACT_COUNTERS:
        pairs = [(base[n][counter], fresh[n][counter]) for n in shared
                 if counter in base[n] and counter in fresh[n]]
        moved = sum(1 for b, f in pairs if f != b)
        if not moved:
            continue
        ratios = [f / b for b, f in pairs if b != 0]
        spread = (f"fresh/baseline median {statistics.median(ratios):.3f} "
                  f"min {min(ratios):.3f} max {max(ratios):.3f}"
                  if ratios else "no nonzero baseline")
        lines.append(f"{base_path.name}: {counter}: {moved} moved; {spread} "
                     f"over {len(ratios)} benchmark(s)")
    return lines


def compare_file(base_path, fresh_path, qps_slack):
    """Returns (failures, warnings) for one baseline/fresh file pair.

    Each failure is a (counter, message) pair."""
    failures = []
    warnings = []
    base = index_benchmarks(base_path)
    fresh = index_benchmarks(fresh_path)

    for name in sorted(base):
        if name not in fresh:
            warnings.append(f"{base_path.name}: '{name}' missing from the "
                            "fresh run (skipped)")
            continue
        b, f = base[name], fresh[name]

        for counter in EXACT_COUNTERS:
            if counter not in b:
                continue  # the baseline harness never reported it
            if counter not in f:
                failures.append((counter, f"{base_path.name}: {name}: counter "
                                 f"'{counter}' vanished from the fresh run"))
            elif f[counter] != b[counter]:
                failures.append((counter, f"{base_path.name}: {name}: "
                                 f"{counter} = {f[counter]:g}, baseline "
                                 f"{b[counter]:g}"))

        if "qps" in b and "qps" in f and b["qps"] > 0:
            floor = b["qps"] * (1.0 - qps_slack)
            if f["qps"] < floor:
                warnings.append(
                    f"{base_path.name}: {name}: qps {f['qps']:.1f} below "
                    f"advisory floor {floor:.1f} (baseline {b['qps']:.1f}; "
                    "timing is hardware-dependent, not gating)")

        if b.get("label", "") != f.get("label", ""):
            warnings.append(f"{base_path.name}: {name}: label "
                            f"'{f.get('label', '')}' != baseline "
                            f"'{b.get('label', '')}'")

    for name in sorted(set(fresh) - set(base)):
        warnings.append(f"{base_path.name}: fresh-only benchmark '{name}' "
                        "(no baseline; skipped)")
    return failures, warnings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", type=pathlib.Path, required=True,
                        help="directory holding committed BENCH_*.json")
    parser.add_argument("--fresh", type=pathlib.Path, required=True,
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--qps-slack", type=float, default=0.5,
                        help="advisory qps tolerance as a fraction of the "
                             "baseline (default 0.5)")
    parser.add_argument("--summary", action="store_true",
                        help="print one line per file and moved exact "
                             "counter instead of one per failure")
    args = parser.parse_args()

    failures = []
    warnings = []
    summary = []
    compared = 0
    for base_path in sorted(args.baselines.glob("BENCH_*.json")):
        fresh_path = args.fresh / base_path.name
        if not fresh_path.exists():
            warnings.append(f"{base_path.name}: no fresh file under "
                            f"{args.fresh} (skipped)")
            continue
        compared += 1
        file_failures, file_warnings = compare_file(base_path, fresh_path,
                                                    args.qps_slack)
        failures.extend(file_failures)
        warnings.extend(file_warnings)
        if args.summary:
            summary.extend(summary_lines(base_path, fresh_path))

    for line in warnings:
        print(f"WARNING: {line}")
    if args.summary:
        for line in summary:
            print(f"MOVED: {line}")
    else:
        for _, line in failures:
            print(f"FAIL: {line}")
    if compared == 0:
        print("FAIL: no baseline file had a fresh counterpart")
        return 1
    print(f"bench_compare: {compared} file(s) compared, "
          f"{len(failures)} failure(s), {len(warnings)} warning(s)")
    if failures:
        # One line naming the counters that moved (a baseline regeneration
        # shows at a glance whether only the expected ones did).
        tally = collections.Counter(counter for counter, _ in failures)
        print("failures by counter: " +
              ", ".join(f"{c}={n}" for c, n in sorted(tally.items())))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
