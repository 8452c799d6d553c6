#!/usr/bin/env python3
"""Builds conn_bench from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ul_single --seed 1 --seconds 35 --trace 0

conn_bench (perfbench/conn_bench.cc) is configured and built in Release
under $CARGO_TARGET_DIR, or .bench_build when that is unset; the first run
compiles the engine, later runs only check that the build is current.

conn_bench's own output (one `name value unit` line per metric) is passed
through.  The last line printed is one JSON object with exactly the keys
`correct`, `attempted`, `failed` and `metrics`, where `metrics` holds the
`end_to_end` metrics of BENCHMARK.json (--trace 0) or its `per_layer`
metrics (--trace 1).

Extra options:
    --out DIR     also write conn_bench's full record (every metric it
                  measured, build stamp) to
                  DIR/<workload>-seed<seed>-trace<t>-<n>.json, n counting
                  repeated runs
    --spans FILE  write the traced run's spans (with --trace 1)
    --smoke       shrink set-up and warm-up (CTest smoke run)
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    log = sys.stderr
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=log, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "conn_bench", "-j", "4"],
        stdout=log, check=True)
    return os.path.join(build_dir, "conn_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("conn sources not found: run from a full checkout")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(os.path.join(ROOT, build_dir))

    cmd = [exe, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.spans:
        cmd += ["--spans", args.spans]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"conn_bench failed with exit code {proc.returncode}")
    record = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        n = 1
        while os.path.exists(os.path.join(args.out, f"{base}-{n}.json")):
            n += 1
        with open(os.path.join(args.out, f"{base}-{n}.json"), "w") as f:
            json.dump(record, f, indent=1)

    kind = "per_layer" if args.trace == "1" else "end_to_end"
    measured = record["metrics"]
    missing = [m["name"] for m in spec[kind] if m["name"] not in measured]
    if missing:
        sys.exit(f"conn_bench did not report {', '.join(missing)}")
    for m in spec[kind]:
        if measured[m["name"]]["unit"] != m["unit"]:
            sys.exit(f"{m['name']}: conn_bench reports unit "
                     f"{measured[m['name']]['unit']!r}, "
                     f"BENCHMARK.json says {m['unit']!r}")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: measured[m["name"]] for m in spec[kind]},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
