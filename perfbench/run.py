#!/usr/bin/env python3
"""Run one workload of the Adrias benchmark and print its metrics.

    python3 perfbench/run.py --workload replay-adrias --seed 0 --seconds 10 --trace 0

Run from the repository root.  Untraced (``--trace 0``) it prints every
end-to-end metric of BENCHMARK.json with its unit and sample count, and
the tails that no bound holds (common.UNBOUNDED); traced (``--trace 1``)
every per-layer metric.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full details of the run go to
``.perfbench_out/<workload>/result-trace<0|1>.json``.  See
perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    OUT_DIR,
    PINNED_ENV,
    ROOT,
    SETUP_REPEATS,
    SRC,
    UNBOUNDED,
    WORKLOADS,
    add_setup,
    child_env,
    metric,
    require_source,
)

os.environ.update(PINNED_ENV)


def run_sim(args) -> dict:
    """replay-adrias / fleet-rack: set up in fresh child processes.

    Each child is timed from spawn until it reports ready; all but the
    last exit there, and the last one goes on to measure.
    """
    out = OUT_DIR / args.workload
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / "child-result.json"
    result_path.unlink(missing_ok=True)
    repeats = 1 if args.trace else SETUP_REPEATS[args.workload]
    setups = []
    for index in range(repeats):
        cmd = [
            sys.executable, str(BENCH_DIR / "sim.py"), args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--result", str(result_path),
        ]
        if index < repeats - 1:
            cmd.append("--setup-only")
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT
        )
        try:
            for line in proc.stdout:
                if line.strip() == "perfbench-ready":
                    setups.append(time.perf_counter() - start)
                else:
                    sys.stderr.write(line)
            code = proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or len(setups) != index + 1:
            raise RuntimeError(f"{args.workload} child exited {code}")
    result = json.loads(result_path.read_text())
    return add_setup(result, setups, bool(args.trace))


def select_metrics(result: dict, spec: list[dict], traced: bool) -> dict:
    """The metrics BENCHMARK.json names, in its order, with its units."""
    selected = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        value = result["metrics"][name]
        if traced:
            value = metric(value, unit)
        elif value["unit"] != unit:
            raise RuntimeError(f"{name}: measured in {value['unit']}, not {unit}")
        selected[name] = value
    return selected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_source()
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["per_layer" if args.trace else "end_to_end"]
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])

    if args.workload == "serve-daemon":
        import serve

        result = serve.run(args.seed, bool(args.trace))
    else:
        result = run_sim(args)
    result["metrics"] = select_metrics(result, spec, bool(args.trace))
    result["correct"] = not result["problems"]
    details = OUT_DIR / args.workload / f"result-trace{args.trace}.json"
    details.write_text(json.dumps({"args": vars(args), **result}, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"units={result['units']}")
    raw, ref = result.get("raw", {}), result.get("ref", {})
    shown = list(result["metrics"].items())
    shown += [(f"{name} (unbounded)", ref[name]) for name in UNBOUNDED if name in ref]
    for label, value in shown:
        name = label.split()[0]
        samples = value.get("samples")
        note = f"  (n={samples})" if samples is not None else ""
        if name in raw:
            note += f"  measured {raw[name]['value']:.6g}"
        print(f"  {label:<40} {value['value']:>14.6g} {value['unit']}{note}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for key, value in result.get("diag", {}).items():
        print(f"  diag {key}: {value}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value["value"], "unit": value["unit"]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
