#!/usr/bin/env python3
"""Smoke test of conn_bench (the bench_smoke CTest).

    smoke_check.py <conn_bench binary> <BENCHMARK.json>

Runs every workload of BENCHMARK.json for one second at --smoke sizes,
untraced and traced, and fails unless each run prints every end-to-end
(untraced) or per-layer (traced) metric the file names, with its unit, and
every checked answer was right (error_rate == 0, no replay mismatch).
"""

import json
import subprocess
import sys


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    exe, spec_path = argv[1], argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            run = f"{w['name']} --trace {trace}"
            proc = subprocess.run(
                [exe, "--workload", w["name"], "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--smoke"],
                stdout=subprocess.PIPE, text=True, timeout=300)
            if proc.returncode != 0:
                problems.append(f"{run}: exit code {proc.returncode}")
                continue
            record = json.loads(proc.stdout.splitlines()[-1])
            metrics = record["metrics"]
            for m in spec[kind]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{run}: {m['name']} not printed")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{run}: {m['name']} in {got['unit']}, "
                                    f"BENCHMARK.json says {m['unit']}")
            if not record["correct"] or metrics["error_rate"]["value"] != 0:
                problems.append(f"{run}: wrong answers (error_rate "
                                f"{metrics['error_rate']['value']}, replay "
                                f"mismatches "
                                f"{metrics['core.replay_mismatches']['value']})")
            print(f"{run}: {record['attempted']} ops")
    for p in problems:
        print(p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main(sys.argv)
