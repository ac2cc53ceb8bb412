#!/usr/bin/env python3
"""Compare bench_e2e runs of a parent and a change, metric by metric.

Each run file holds bench_e2e results in any of these shapes: the --out
document of one bench_e2e run, a baseline ({"runs": [documents...]}), or
the per-workload JSON lines bench_e2e prints on standard output.

For every workload and every end-to-end metric of BENCHMARK.json the gate
prints each side's median and quartiles over its runs, then a verdict:

  ok            the change's median is within the metric's bound of the
                parent's, in the metric's worse direction
  REGRESSION    the change's median is worse by more than the bound
  unresolved    either side's spread (quartile distance / median) exceeds
                the bound, unless every change run beats every parent run

Report digests of runs with the same seed base must be equal on both
sides (the simulation must stay observation-equivalent), and so must
metrics counted in units of "count". A run that reported correct=false
fails the gate.

Exit status: 0 when every verdict is ok, 1 otherwise, 2 on bad input.

Typical use:
  ./bench_e2e --seed-base 1 --out parent-1.json   # x5, on the parent
  ./bench_e2e --seed-base 1 --out change-1.json   # x5, on the change
  python3 bench_e2e/e2e_gate.py --parent parent-*.json --change change-*.json
  python3 bench_e2e/e2e_gate.py \\
      --parent bench_e2e/baselines/BENCH_e2e.json --change change-*.json
"""

import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def results_in(doc):
    """Yield every per-workload result object inside a parsed document."""
    if isinstance(doc, dict):
        if "workload" in doc and "metrics" in doc:
            yield doc
        for key in ("runs", "workloads"):
            for item in doc.get(key, []):
                yield from results_in(item)
    elif isinstance(doc, list):
        for item in doc:
            yield from results_in(item)


def load(paths):
    results = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SystemExit(f"e2e_gate: cannot read {path}: {exc}")
        try:
            docs = [json.loads(text)]
        except json.JSONDecodeError:
            try:
                docs = [json.loads(line) for line in text.splitlines()
                        if line.strip()]
            except json.JSONDecodeError as exc:
                raise SystemExit(f"e2e_gate: {path} is not JSON: {exc}")
        found = [r for d in docs for r in results_in(d)]
        if not found:
            raise SystemExit(f"e2e_gate: {path} holds no bench_e2e results")
        results.extend(found)
    return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()

    try:
        with open(SPEC, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"e2e_gate: cannot read {SPEC}: {exc}", file=sys.stderr)
        return 2
    parent = load(args.parent)
    change = load(args.change)

    problems = []
    for side, runs in (("parent", parent), ("change", change)):
        for r in runs:
            if not r.get("correct", False):
                problems.append(f"{side} run of {r['workload']} is not "
                                f"correct: {r.get('error', 'no detail')}")

    # Same seed base on both sides: same report bytes, same counts.
    def keyed(runs):
        out = {}
        for r in runs:
            out.setdefault((r["workload"], r.get("seed_base")), []).append(r)
        return out
    pk, ck = keyed(parent), keyed(change)
    for key in sorted(set(pk) & set(ck), key=str):
        digests = {r["digest"] for r in pk[key] + ck[key]}
        if len(digests) > 1:
            problems.append(f"{key[0]} seed base {key[1]}: report digests "
                            f"differ ({len(digests)} distinct)")
        for m in spec["end_to_end"]:
            if not m["unit"].startswith("count"):
                continue
            values = {r["metrics"][m["name"]]["value"] for r in pk[key] + ck[key]
                      if m["name"] in r["metrics"]}
            if len(values) > 1:
                problems.append(f"{key[0]} seed base {key[1]}: {m['name']} "
                                f"is not the same count in every run")

    workloads = [w["name"] for w in spec["workloads"]]
    verdicts = []
    print(f"{'workload':<13} {'metric':<18} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'worse':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            pv = [r["metrics"][name]["value"] for r in parent
                  if r["workload"] == w and name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in change
                  if r["workload"] == w and name in r["metrics"]]
            if not pv or not cv:
                continue
            pq, cq = quartiles(pv), quartiles(cv)
            lower = m["better"] == "lower"
            worse = ((cq[1] - pq[1]) if lower else (pq[1] - cq[1])) / pq[1]
            beats_all = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
            if max(spread(pv), spread(cv)) > bound and not beats_all:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            verdicts.append(verdict)
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{w:<13} {name:<18} {fmt.format(*pq):>30} "
                  f"{fmt.format(*cq):>30} {worse:>+7.1%} {bound:>6.0%}  "
                  f"{verdict}")

    for p in problems:
        print(f"e2e_gate: {p}", file=sys.stderr)
    if not verdicts:
        print("e2e_gate: no workload has results on both sides",
              file=sys.stderr)
        return 2
    bad = [v for v in verdicts if v != "ok"]
    if bad or problems:
        print(f"\ne2e_gate: FAIL — {bad.count('REGRESSION')} regression(s), "
              f"{bad.count('unresolved')} unresolved, {len(problems)} "
              "correctness problem(s)")
        return 1
    print(f"\ne2e_gate: OK — {len(verdicts)} workload x metric pairs within "
          "their bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
