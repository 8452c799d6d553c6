#!/usr/bin/env python3
"""Unit test for the statistics of tools/paired_bench.py, run via ctest.

Checks the run order's alternation, the quartiles, the win count in both
metric directions with ties counting for neither side, both halves of
the gain rule (at least 9 of 10 pairs won; a median gap wider than the
parent's interquartile range), and the no-regression rule (the change's
median worse by at most the bound, unresolved when the parent's own
spread exceeds it unless every change run beats every parent run).
"""

import importlib.util
import sys
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).resolve().parent / "paired_bench.py")
pb = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pb)


def main() -> int:
    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    order = pb.run_order(4)
    expect(order == [("parent", "change"), ("change", "parent")] * 2,
           f"run order must alternate, starting with the parent: {order}")

    # Linear interpolation between order statistics.
    expect(pb.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0),
           "quartiles of 1..5")
    expect(pb.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25),
           f"quartiles of 1..4: {pb.quartiles([1.0, 2.0, 3.0, 4.0])}")
    expect(pb.quartiles([7.0]) == (7.0, 7.0, 7.0), "one value")

    # Ten pairs: the parent runs 30..39, the change 40..49 except one tie
    # and one loss.
    pairs = [(30.0 + i, 40.0 + i) for i in range(8)]
    pairs += [(38.0, 38.0), (39.0, 20.0)]
    s = pb.summarize(pairs, "higher")
    expect((s["wins"], s["losses"], s["ties"]) == (8, 1, 1),
           f"wins/losses/ties: {s}")
    expect(not s["gain"], "8 wins of 10 must not claim a gain")

    nine = [(30.0 + i, 40.0 + i) for i in range(9)] + [(39.0, 39.0)]
    s = pb.summarize(nine, "higher")
    expect(s["wins"] == 9 and s["parent_iqr"] == 4.5,
           f"nine wins, parent IQR 4.5: {s}")
    expect(s["gain"], f"9/10 wins and gap {s['gap']} > IQR 4.5: {s}")

    # Same values read as a lower-is-better metric: the parent wins.
    s = pb.summarize(nine, "lower")
    expect(s["wins"] == 0 and s["losses"] == 9 and not s["gain"],
           f"lower is better: {s}")

    # Every pair won, but by less than the parent's spread.
    narrow = [(30.0 + i, 30.5 + i) for i in range(10)]
    s = pb.summarize(narrow, "higher")
    expect(s["wins"] == 10 and not s["gain"],
           f"a gap of 0.5 inside an IQR of 4.5 is no gain: {s}")

    # Lower-is-better latencies that fall clearly.
    latency = [(10.0 + 0.1 * i, 5.0 + 0.1 * i) for i in range(10)]
    s = pb.summarize(latency, "lower")
    expect(s["wins"] == 10 and s["gain"] and abs(s["gap"] - 5.0) < 1e-9,
           f"latency gain: {s}")

    # No-regression rule, bound 25%.  Parent 100..104 (median 102, IQR 2).
    parent = [100.0, 101.0, 102.0, 103.0, 104.0]
    r = pb.no_regression([(p, p - 20.0) for p in parent], "higher", 0.25)
    expect(r["verdict"] == "holds" and abs(r["worse"] - 20 / 102) < 1e-12,
           f"20% worse inside a 25% bound holds: {r}")
    r = pb.no_regression([(p, p - 30.0) for p in parent], "higher", 0.25)
    expect(r["verdict"] == "regression", f"29% worse is a regression: {r}")
    r = pb.no_regression([(p, p + 30.0) for p in parent], "lower", 0.25)
    expect(r["verdict"] == "regression",
           f"lower is better: a 29% rise is a regression: {r}")
    r = pb.no_regression([(p, p - 30.0) for p in parent], "lower", 0.25)
    expect(r["verdict"] == "holds" and r["worse"] < 0,
           f"lower is better: a fall is no regression: {r}")

    # A parent too noisy to tell (IQR 60 over median 100): unresolved,
    # whichever way the medians lie ...
    noisy = [40.0, 70.0, 100.0, 130.0, 160.0]
    for shift in (-50.0, 0.0, 5.0):
        r = pb.no_regression([(p, p + shift) for p in noisy], "higher", 0.25)
        expect(r["verdict"] == "unresolved" and not r["dominates"],
               f"a parent spread of 60% is unresolved (shift {shift}): {r}")
    # ... unless every change run beats every parent run.
    r = pb.no_regression([(p, 200.0 + p) for p in noisy], "higher", 0.25)
    expect(r["verdict"] == "holds" and r["dominates"],
           f"a change that beats every parent run holds: {r}")
    r = pb.no_regression([(p, p / 10.0) for p in noisy], "lower", 0.25)
    expect(r["verdict"] == "holds" and r["dominates"],
           f"lower is better, every change run below every parent run: {r}")

    # A parent median of 0 (a counter that reads 0): any loss is infinite.
    zero = [(0.0, 0.0)] * 5
    expect(pb.no_regression(zero, "lower", 0.12)["verdict"] == "holds",
           "equal zeros hold")
    r = pb.no_regression([(0.0, 1.0)] * 5, "lower", 0.12)
    expect(r["verdict"] == "regression", f"0 -> 1 is a regression: {r}")

    if failures:
        print(f"paired_bench_test: {len(failures)} failure(s)")
        for failure in failures:
            print(f"  FAIL: {failure}")
        return 1
    print("paired_bench_test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
