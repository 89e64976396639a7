#!/usr/bin/env python
"""Engine benchmark CLI: ticks/sec, decisions/sec, phase breakdown.

Thin wrapper over :mod:`repro.obs.perf.bench` — measures the simulator's
throughput at three scenario scales, the full Adrias decision path (one
decision per tick), the LSTM's inference-mode forward against its
training-mode one, the fleet tick at 1, 8 and 64 nodes, and a per-phase
cost breakdown of a congested policy-driven scenario.  Run::

    PYTHONPATH=src python benchmarks/bench_engine.py                 # full
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke         # CI
    PYTHONPATH=src python benchmarks/bench_engine.py --json BENCH_engine.json

The committed baseline lives at ``benchmarks/baselines/BENCH_engine.json``
and is enforced by ``repro obs perfcheck`` (see the CI ``perf-smoke``
job).  Refresh it by re-running this script with ``--json`` on a quiet
machine and committing the result.
"""

from __future__ import annotations

import argparse
import json

from repro.obs.perf.bench import format_report, run_engine_bench


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: short durations, tiny LSTM, best of 2",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions, best-of (default 3)",
    )
    parser.add_argument(
        "--hidden", type=int, default=32,
        help="LSTM hidden width (default 32, the paper's size)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="scenario seed (default 0)"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the report as JSON (e.g. BENCH_engine.json)",
    )
    args = parser.parse_args()

    report = run_engine_bench(
        smoke=args.smoke,
        repeats=args.repeats,
        hidden=args.hidden,
        seed=args.seed,
    )
    print(format_report(report))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"json report: {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
