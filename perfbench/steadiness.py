#!/usr/bin/env python3
"""Measure how steady the end-to-end metrics are on one commit.

    python3 perfbench/steadiness.py [--seeds 0-9] [--sets 2] \
        [--workloads replay-adrias,fleet-rack,serve-daemon] [--out FILE]

Runs ``run.py --trace 0`` once per (set, workload, seed), each in a fresh
process, interleaving the sets run by run (which set goes first
alternates with the seed) so that drift in host speed lands on both.
For every set, workload and end-to-end metric (and the unbounded tails
of common.UNBOUNDED) it records the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) /
median; with two sets, also how far the second set's median moved from
the first in the metric's worse direction.  The record is
written to FILE (default perfbench/steadiness.json) and printed as a
table against each metric's bound from BENCHMARK.json.  For each time
metric it also keeps both variants a run computes, as measured
(``raw``) and at the reference probe time (``ref``), so the record shows
whether the host-speed correction narrows a metric's spread.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, OUT_DIR, ROOT, UNBOUNDED, WORKLOADS


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result line of one untraced run, and its details file."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its gate:\n{proc.stdout}")
    details = json.loads((OUT_DIR / workload / "result-trace0.json").read_text())
    return result, details


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default=str(BENCH_DIR / "steadiness.json"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    # The unbounded tails are recorded too, to show why they have no bound.
    metrics.update({name: {"bound": None, "better": "lower"} for name in UNBOUNDED})
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    # Each time metric both as measured ("raw") and at the reference
    # probe time ("ref"), beside the value the run reports.
    variants = ("value", "raw", "ref")
    values = {
        (s, w, m, v): [] for s in range(args.sets) for w in workloads
        for m in metrics for v in variants
    }
    started = time.time()
    for position, seed in enumerate(seeds):
        for workload in workloads:
            order = list(range(args.sets))
            if position % 2:
                order.reverse()
            for which in order:
                result, details = run_once(workload, seed, seconds)
                for name in metrics:
                    reported = result["metrics"].get(name) or details["ref"][name]
                    values[(which, workload, name, "value")].append(reported["value"])
                    for variant in ("raw", "ref"):
                        if name in details[variant]:
                            values[(which, workload, name, variant)].append(
                                details[variant][name]["value"]
                            )
                print(f"set {which} {workload} seed {seed}: " + ", ".join(
                    f"{n}={values[(which, workload, n, 'value')][-1]:.4g}"
                    for n in metrics
                ), flush=True)
    record = {
        "run_seconds": seconds,
        "seeds": seeds,
        "host": f"{platform.machine()}, {platform.python_implementation()} "
                f"{platform.python_version()}, {platform.processor() or 'cpu'}",
        "wall_s": round(time.time() - started, 1),
        "workloads": {},
    }
    print(f"\n{'workload':<14} {'metric':<16} {'bound':>6} "
          + " ".join(f"{'spread ' + str(s):>9}" for s in range(args.sets))
          + ("   shift" if args.sets > 1 else "")
          + "   spreads measured | at reference")
    for workload in workloads:
        rows = record["workloads"][workload] = {}
        for name, spec in metrics.items():
            sets = [summarize(values[(s, workload, name, "value")])
                    for s in range(args.sets)]
            row = {"bound": spec["bound"], "sets": sets}
            bound = "-" if spec["bound"] is None else f"{spec['bound']:.2f}"
            line = (f"{workload:<14} {name:<16} {bound:>6} "
                    + " ".join(f"{s['spread']:>9.4f}" for s in sets))
            if args.sets > 1:
                first, second = sets[0]["median"], sets[1]["median"]
                sign = 1 if spec["better"] == "lower" else -1
                row["shift"] = sign * (second - first) / first
                line += f" {row['shift']:>+7.4f}"
            if values[(0, workload, name, "ref")]:
                for variant in ("raw", "ref"):
                    row[variant] = [summarize(values[(s, workload, name, variant)])
                                    for s in range(args.sets)]
                line += "   " + " ".join(
                    f"{s['spread']:.4f}" for s in row["raw"]
                ) + " | " + " ".join(f"{s['spread']:.4f}" for s in row["ref"])
            rows[name] = row
            print(line)
    with open(args.out, "w") as out:
        json.dump(record, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
