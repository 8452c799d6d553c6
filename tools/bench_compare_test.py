#!/usr/bin/env python3
"""Unit test for tools/bench_compare.py, run via ctest.

Writes a baseline and a fresh directory of Google-Benchmark JSON, then
checks the gate (exit status, FAIL lines) and the --summary lines: one per
file and moved exact counter, with the count of moved benchmarks and the
median, minimum and maximum of fresh/baseline.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "bench_compare.py"


def write_bench(path: Path, rows: dict) -> None:
    doc = {"benchmarks": [dict(name=name, run_type="iteration", **counters)
                          for name, counters in rows.items()]}
    path.write_text(json.dumps(doc))


def run(base: Path, fresh: Path, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--baselines", str(base), "--fresh",
         str(fresh), *extra],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        fresh = Path(tmp) / "fresh"
        base.mkdir()
        fresh.mkdir()
        # NOE moves in three of four benchmarks (ratios 0.5, 0.25, 0.4, 1);
        # faults never moves; SVG moves once from a zero baseline.
        write_bench(base / "BENCH_a.json", {
            "q/1": {"NOE": 100, "faults": 7, "SVG": 0, "qps": 10.0},
            "q/2": {"NOE": 40, "faults": 3, "SVG": 5},
            "q/3": {"NOE": 50, "faults": 2, "SVG": 5},
            "q/4": {"NOE": 9, "faults": 1, "SVG": 5},
        })
        write_bench(fresh / "BENCH_a.json", {
            "q/1": {"NOE": 50, "faults": 7, "SVG": 3, "qps": 10.0},
            "q/2": {"NOE": 10, "faults": 3, "SVG": 5},
            "q/3": {"NOE": 20, "faults": 2, "SVG": 5},
            "q/4": {"NOE": 9, "faults": 1, "SVG": 5},
        })
        # An unchanged file prints no summary line.
        write_bench(base / "BENCH_b.json", {"x": {"NPE": 4}})
        write_bench(fresh / "BENCH_b.json", {"x": {"NPE": 4}})

        status, lines = run(base, fresh)
        expect(status == 1, f"moved counters must fail the gate: {status}")
        fails = [l for l in lines if l.startswith("FAIL: ")]
        expect(len(fails) == 4, f"one FAIL line per moved value: {lines}")
        expect(lines[-1] == "failures by counter: NOE=3, SVG=1",
               f"tally line: {lines[-1]}")

        status, lines = run(base, fresh, "--summary")
        expect(status == 1, f"--summary keeps the exit status: {status}")
        expect(not any(l.startswith("FAIL: ") for l in lines),
               f"--summary replaces the FAIL lines: {lines}")
        moved = [l for l in lines if l.startswith("MOVED: ")]
        expect(moved == [
            "MOVED: BENCH_a.json: NOE: 3 moved; fresh/baseline median 0.450 "
            "min 0.250 max 1.000 over 4 benchmark(s)",
            "MOVED: BENCH_a.json: SVG: 1 moved; fresh/baseline median 1.000 "
            "min 1.000 max 1.000 over 3 benchmark(s)",
        ], f"summary lines: {moved}")

        # Identical files: exit 0 and nothing moved.
        status, lines = run(base, base, "--summary")
        expect(status == 0, f"identical files pass: {status} {lines}")
        expect(not any(l.startswith("MOVED: ") for l in lines),
               f"identical files move nothing: {lines}")

    for f in failures:
        print(f"FAIL: {f}")
    print(f"bench_compare_test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
