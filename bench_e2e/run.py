#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload of it.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The first call configures and builds
the simulator libraries plus bench_e2e into .bench_build/ (or
$CARGO_TARGET_DIR); later calls only re-check the build. The workload runs
with seed base N for about S seconds. With --trace 0 the result carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics
(and .bench_out/<workload>.trace.json gets the benchmark's own spans).

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit status is 0 only when the build succeeded, every replica ran, the
report bytes matched their golden digest (seed 1) and the paper's outcomes
held.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", jobs],
    ]
    # Once configured, the build step re-runs CMake by itself when a
    # CMakeLists.txt changes.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(build_dir, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 1:
        parser.error("--seed must be >= 1 (it is the replicas' seed base)")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"run.py: build failed: {exc}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload,
           "--seed-base", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--traced", "--trace-out",
                os.path.join(out_dir, f"{args.workload}.trace.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("run.py: bench_e2e printed no result", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
