#!/usr/bin/env python3
"""Alternated paired runs of the repo benchmark in two checkouts.

Usage:
    paired_bench.py --parent ../parent --change . --workload ul_single \\
        --seeds 1,2,3,4,5,6,7,8,9,10 [--seconds 35] [--trace 0] \\
        [--targets DIR] [--json FILE]

For every workload and seed, `python3 perfbench/run.py` runs once in each
checkout.  The side that runs first alternates from pair to pair (the
parent first in pairs 1, 3, 5, ...), so a drift of the machine over the
session falls on both sides alike.  Each checkout builds into its own
CARGO_TARGET_DIR, DIR/parent and DIR/change (DIR defaults to
.paired_bench in the current directory), so neither rebuilds the other's
engine between runs.

Per workload and metric of BENCHMARK.json (its `end_to_end` metrics, or
`per_layer` with --trace 1), it prints every pair, each side's median and
quartiles, and the change's wins; ties count for neither side.  Then comes
the gain rule: the change wins at least 9 of every 10 pairs, and its median
is better than the parent's by more than the parent's interquartile range
(IQR, the distance between its first and third quartiles).  A metric with a
`bound` (the end-to-end ones) also gets the no-regression rule: the
change's median may be worse than the parent's by at most `bound` times the
parent's median.  The rule is `unresolved` when the parent's own IQR
exceeds `bound` times its median, unless every change run beats every
parent run.  Each side's correctness flags and failed operations are
summed at the end.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_order(n_pairs):
    """Which side runs first in each pair: the parent in pairs 1, 3, ..."""
    return [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(n_pairs)]


def quartiles(values):
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs, better):
    """Statistics of (parent, change) value pairs of one metric.

    `better` is "higher" or "lower", as BENCHMARK.json gives it."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    gap = sign * (change[1] - parent[1])
    iqr = parent[2] - parent[0]
    return {
        "parent": parent,
        "change": change,
        "wins": wins,
        "losses": losses,
        "ties": len(pairs) - wins - losses,
        "gap": gap,
        "parent_iqr": iqr,
        "gain": 10 * wins >= 9 * len(pairs) and gap > iqr,
    }


def no_regression(pairs, better, bound):
    """The no-regression rule of one metric over (parent, change) pairs.

    `worse` is how much the change's median is worse than the parent's, as
    a fraction of the parent's median (negative when it is better), and
    `spread` the parent's IQR over its median.  The verdict is "holds",
    "regression" (worse > bound) or "unresolved" (spread > bound and some
    parent run is at least as good as some change run)."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    q1, med, q3 = quartiles(parent)
    loss = sign * (med - quartiles(change)[1])

    def relative(x):
        if med != 0:
            return x / abs(med)
        return math.copysign(math.inf, x) if x != 0 else 0.0

    worse = relative(loss)
    spread = relative(q3 - q1)
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not dominates:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "holds"
    return {"worse": worse, "spread": spread, "dominates": dominates,
            "verdict": verdict}


def run_once(checkout, target, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench/run.py failed in {checkout} "
                 f"({workload}, seed {seed}): exit {proc.returncode}")
    return json.loads(lines[-1])


def fmt(x):
    return f"{x:.6g}"


def report(workload, seeds, orders, records, spec_metrics):
    print(f"== {workload}: {len(seeds)} pairs")
    verdicts = {}
    for metric in spec_metrics:
        name = metric["name"]
        pairs = [(records["parent"][i]["metrics"][name]["value"],
                  records["change"][i]["metrics"][name]["value"])
                 for i in range(len(seeds))]
        s = summarize(pairs, metric["better"])
        print(f"{name} ({metric['unit']}, {metric['better']} is better)")
        print("  pair  seed  first   parent        change")
        for i, (seed, (p, c)) in enumerate(zip(seeds, pairs)):
            print(f"  {i + 1:4d}  {seed:>4}  {orders[i][0]:6}  "
                  f"{fmt(p):12}  {fmt(c)}")
        for side in SIDES:
            q1, med, q3 = s[side]
            print(f"  {side:6}  median {fmt(med)}  quartiles "
                  f"{fmt(q1)} .. {fmt(q3)}")
        verdict = "holds" if s["gain"] else "does not hold"
        print(f"  change wins {s['wins']}/{len(pairs)} (losses {s['losses']}, "
              f"ties {s['ties']}); gain rule {verdict}: median gap "
              f"{fmt(s['gap'])} vs parent IQR {fmt(s['parent_iqr'])}")
        if "bound" in metric:
            r = no_regression(pairs, metric["better"], metric["bound"])
            verdicts[name] = r["verdict"]
            print(f"  no-regression rule {r['verdict']}: change median worse "
                  f"by {r['worse']:+.1%} (bound {metric['bound']:.0%}); "
                  f"parent IQR/median {r['spread']:.1%}")
    if verdicts:
        flagged = [f"{name} {v}" for name, v in verdicts.items()
                   if v != "holds"]
        print("  no-regression rule: " +
              (", ".join(flagged) if flagged else "holds on every metric"))
    for side in SIDES:
        recs = records[side]
        print(f"  {side}: correct in {sum(1 for r in recs if r['correct'])}/"
              f"{len(recs)} runs, failed {sum(r['failed'] for r in recs)} of "
              f"{sum(r['attempted'] for r in recs)} ops")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name (repeatable)")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one pair each")
    parser.add_argument("--seconds", default="35")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--targets", default=".paired_bench",
                        help="directory for the two build trees")
    parser.add_argument("--json", help="write every run's record here")
    args = parser.parse_args()

    seeds = [s for s in args.seeds.split(",") if s]
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    targets = {side: os.path.join(os.path.abspath(args.targets), side)
               for side in SIDES}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    orders = run_order(len(seeds))

    everything = {}
    for workload in args.workload:
        records = {side: [] for side in SIDES}
        for seed, order in zip(seeds, orders):
            for side in order:
                records[side].append(run_once(
                    checkouts[side], targets[side], workload, seed,
                    args.seconds, args.trace))
                print(f"[{workload} seed {seed}] {side} done",
                      file=sys.stderr)
        report(workload, seeds, orders, records, spec[kind])
        everything[workload] = {"seeds": seeds, "records": records}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)


if __name__ == "__main__":
    main()
