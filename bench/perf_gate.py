#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a committed baseline.

The tracked number is per-benchmark cpu_time. Raw times are machine-
dependent, so the gate normalizes by the median ratio across all shared
benchmarks: if the runner is uniformly 1.7x slower than the machine that
produced the baseline, every ratio carries that 1.7x and the median
cancels it. What remains is each benchmark's speed *relative to the rest
of the suite*, which is stable across machines — a real regression shows
up as one benchmark drifting above the pack.

Exit status: 0 when no benchmark regresses more than --threshold after
normalization, 1 otherwise, 2 on malformed input. Benchmarks that are
new, skipped (SkipWithError, e.g. an ISA backend the runner lacks), or
errored are reported but never gate — only a benchmark present and
healthy on both sides can regress.

Typical use (CI and the committed baseline both take five repetitions
per row, and the gate compares each side's fastest):
  ./build-release/bench/bench_micro --benchmark_repetitions=5 \
      --benchmark_out=current.json --benchmark_out_format=json
  python3 bench/perf_gate.py --baseline bench/baselines/BENCH_micro.json \
      --current current.json

Refreshing the baseline after intentional perf changes:
  cp current.json bench/baselines/BENCH_micro.json
"""

import argparse
import json
import statistics
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Per-benchmark thresholds stricter than --threshold. BM_TraceDisabled is
# the disabled-tracer overhead contract (EXP-O2): instrumentation on every
# datapath must stay within 3% when tracing is off, so a regression there
# means someone put work ahead of the enabled check.
TIGHT_THRESHOLDS = {
    "BM_TraceDisabled": 0.03,
}


def load_benchmarks(path):
    """Return {name: cpu_time_ns} for healthy entries, plus skipped names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"perf_gate: cannot read {path}: {exc}")
    times = {}
    skipped = set()
    for entry in doc.get("benchmarks", []):
        name = entry.get("name")
        if not name:
            continue
        # Aggregates (median/mean/stddev rows from --benchmark_repetitions)
        # duplicate the iteration rows; gate on plain iterations only.
        if entry.get("run_type", "iteration") != "iteration":
            continue
        if entry.get("error_occurred") or entry.get("skipped"):
            skipped.add(name)
            continue
        cpu = entry.get("cpu_time")
        unit = entry.get("time_unit", "ns")
        if cpu is None or unit not in TIME_UNIT_NS:
            skipped.add(name)
            continue
        ns = cpu * TIME_UNIT_NS[unit]
        # A name can repeat (manual repetitions); keep the fastest, which
        # is the least noise-contaminated estimate of the true cost.
        if name not in times or ns < times[name]:
            times[name] = ns
    return times, skipped


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON (google-benchmark format)")
    parser.add_argument("--current", required=True,
                        help="JSON from the run under test")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max allowed normalized slowdown (default 0.10)")
    args = parser.parse_args()

    base, base_skipped = load_benchmarks(args.baseline)
    cur, cur_skipped = load_benchmarks(args.current)
    if not base:
        print("perf_gate: baseline has no healthy benchmarks", file=sys.stderr)
        return 2

    shared = sorted(set(base) & set(cur))
    if len(shared) < 3:
        # Median normalization needs a population; with almost no overlap
        # the gate cannot distinguish machine speed from regression.
        print(f"perf_gate: only {len(shared)} shared benchmarks; "
              "need >= 3 for normalization", file=sys.stderr)
        return 2

    ratios = {name: cur[name] / base[name] for name in shared}
    machine = statistics.median(ratios.values())

    regressions = []
    print(f"perf_gate: {len(shared)} shared benchmarks, "
          f"machine-speed normalizer {machine:.3f}x")
    print(f"{'benchmark':<40} {'base':>12} {'current':>12} "
          f"{'ratio':>7} {'norm':>7}")
    for name in shared:
        norm = ratios[name] / machine
        threshold = min(args.threshold, TIGHT_THRESHOLDS.get(name, args.threshold))
        flag = ""
        if norm > 1.0 + threshold:
            regressions.append((name, norm))
            flag = "  << REGRESSION"
            if threshold != args.threshold:
                flag += f" (tight {threshold:.0%} gate)"
        print(f"{name:<40} {base[name]:>10.0f}ns {cur[name]:>10.0f}ns "
              f"{ratios[name]:>6.2f}x {norm:>6.2f}x{flag}")

    for name in sorted(set(base) - set(cur) - cur_skipped):
        print(f"note: '{name}' in baseline but missing from current run")
    for name in sorted(set(cur) - set(base)):
        print(f"note: '{name}' is new (not in baseline); not gated")
    for name in sorted(cur_skipped | base_skipped):
        print(f"note: '{name}' skipped or errored; not gated")

    if regressions:
        print(f"\nperf_gate: FAIL — {len(regressions)} benchmark(s) regressed "
              f"more than {args.threshold:.0%} after normalization:",
              file=sys.stderr)
        for name, norm in regressions:
            print(f"  {name}: {norm:.2f}x the baseline's relative cost",
                  file=sys.stderr)
        return 1
    print(f"\nperf_gate: OK — worst normalized slowdown within "
          f"{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
