#!/usr/bin/env python3
"""Print the per-layer report of every workload, with the tracing overhead.

    python3 perfbench/report.py [--seed 0] [--workloads a,b,c]

For each workload, runs ``run.py`` untraced and then traced on the same
seed, and prints:

* the untraced run's end-to-end metrics, each with its unit and sample
  count, and its attempted and failed operations;
* the tracing overhead: busy wall time per unit of work (a one-hour
  scenario; for serve-daemon, the client's summed request service time
  over the fixed schedule), traced minus untraced, as measured and at
  the reference probe time;
* every per-layer metric of BENCHMARK.json with its unit, and each
  ratio together with its base;
* every span by self time: calls, total and self milliseconds, and the
  self time's share of the traced busy time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import BENCH_DIR, OUT_DIR, ROOT, WORKLOADS


def details(workload: str, seed: int, trace: int, seconds: int) -> dict:
    """Run one workload and return the details file it wrote.

    An untraced run's metric lines (each end-to-end metric with its unit
    and sample count, the unbounded tails, attempted and failed
    operations, diagnostics) are printed as run.py prints them.
    """
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
    )
    if not trace:
        print("\n" + "\n".join(proc.stdout.splitlines()[:-1]), flush=True)
    return json.loads((OUT_DIR / workload / f"result-trace{trace}.json").read_text())


def report(workload: str, plain: dict, traced: dict, spec: list[dict]) -> None:
    print(f"\n== {workload} (seed {traced['args']['seed']}, "
          f"{traced['units']} traced units) ==")
    for label, scale in (("measured", lambda r: 1.0),
                         ("at the reference probe time",
                          lambda r: r["diag"]["host_factor"])):
        base = plain["busy_s_per_unit"] / scale(plain)
        with_spans = traced["busy_s_per_unit"] / scale(traced)
        print(f"tracing overhead, {label}: {base:.3f} s untraced -> "
              f"{with_spans:.3f} s traced per unit ({with_spans - base:+.3f} s, "
              f"{(with_spans / base - 1) * 100:+.1f}%)")
    if not traced["correct"]:
        print("traced run INCORRECT: " + "; ".join(traced["problems"]))
    print(f"\n{'per-layer metric':<36} {'value':>14}  unit")
    for entry in spec:
        value = traced["metrics"][entry["name"]]["value"]
        print(f"{entry['name']:<36} {value:>14.6g}  {entry['unit']}")
    print("\nratios and their bases:")
    for name, (part, part_what, whole, whole_what) in traced["bases"].items():
        if whole:
            print(f"  {name} = {part:,} {part_what} / {whole:,} {whole_what}"
                  f" = {part / whole:.4g}")
    busy_ms = traced["busy_s_per_unit"] * traced["units"] * 1e3
    print(f"\n{'span':<30} {'calls':>9} {'total_ms':>11} {'self_ms':>11} "
          f"{'self share':>10}")
    layers = sorted(traced["layers"].items(), key=lambda kv: -kv[1]["self_ms"])
    for name, row in layers:
        print(f"{name:<30} {row['calls']:>9,} {row['total_ms']:>11.1f} "
              f"{row['self_ms']:>11.1f} {row['self_ms'] / busy_ms:>10.1%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in args.workloads.split(","):
        plain = details(workload, args.seed, 0, bench["run_seconds"])
        traced = details(workload, args.seed, 1, bench["run_seconds"])
        report(workload, plain, traced, bench["per_layer"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
