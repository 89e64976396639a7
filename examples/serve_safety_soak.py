#!/usr/bin/env python
"""Client-driven soak of the orchestrator daemon under a tight envelope.

Boots ``repro serve`` as a real subprocess with a deliberately tight
safety envelope (remote-concurrency ceiling of 2) and a connection-drop
fault window covering the whole run, then fires a batch of deployments
at it through :class:`repro.serve.DaemonClient` — whose retries are what
make the induced drops invisible to the caller.  Asserts the headline
robustness claims end to end:

* every request is accounted for: admitted + vetoed + rejected adds up,
  nothing is lost to a dropped connection (drops happen *before* the
  daemon mutates state, so a retry is safe);
* the safety envelope actually bites: at least one remote placement is
  vetoed and audited;
* the fault plan actually bites: at least one connection is dropped;
* a client-requested drain shuts the daemon down with exit status 0 and
  a crash-safe checkpoint whose warm restore re-saves bit-identically.

Usage::

    python examples/serve_safety_soak.py                  # 50 deployments
    python examples/serve_safety_soak.py --deployments 20 # quicker
    python examples/serve_safety_soak.py --out out/soak   # artifact dir

Exit status 0 iff every assertion holds.  The ``--out`` directory keeps
the observability dump (stream + metrics + audit) for upload from CI.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.faults.plan import FaultPlan, FaultSpec  # noqa: E402
from repro.serve.client import DaemonClient  # noqa: E402
from repro.serve.daemon import OrchestratorDaemon  # noqa: E402
from repro.serve.safety import SafetyConstraint, SafetyEnvelope  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
APPS = ("redis", "memcached")


def spawn(out: Path, env_path: Path, plan_path: Path, ckpt: Path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--safety", str(env_path), "--faults", str(plan_path),
         "--checkpoint", str(ckpt),
         "--obs-out", str(out / "obs"), "--obs-stream"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=ENV, cwd=REPO,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        print(f"  [serve] {line.rstrip()}")
        if line.startswith("serve: listening on "):
            return process, int(line.rsplit(":", 1)[1])
    process.kill()
    raise RuntimeError("daemon never reported a listening port")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--deployments", type=int, default=50)
    parser.add_argument("--out", type=Path, default=Path("out/serve-soak"))
    args = parser.parse_args()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    env_path = SafetyEnvelope(
        (
            SafetyConstraint("breaker_closed"),
            SafetyConstraint("max_concurrent_remote", 2),
        ),
        description="soak envelope: remote ceiling low enough to trip",
    ).to_file(out / "envelope.json")
    plan_path = FaultPlan(
        faults=(
            FaultSpec("conn_drop", 0.0, 10_000_000.0,
                      {"probability": 0.25}),
        ),
        seed=7,
        description="soak plan: drop a quarter of all requests",
    ).to_file(out / "faults.json")
    ckpt = out / "daemon.ckpt"

    process, port = spawn(out, env_path, plan_path, ckpt)
    statuses: dict[str, int] = {}
    try:
        with DaemonClient(host="127.0.0.1", port=port, retries=10) as client:
            for index in range(args.deployments):
                response = client.deploy(APPS[index % len(APPS)])
                status = response.get("status", "error")
                statuses[status] = statuses.get(status, 0) + 1
            health = client.health()
            client.request({"op": "drain", "reason": "soak complete"})
    finally:
        if process.poll() is None and not process.stdout.closed:
            for line in process.stdout:
                print(f"  [serve] {line.rstrip()}")
        code = process.wait(timeout=30.0)

    print(f"statuses: {statuses}")
    counters = health["counters"]
    print(f"counters: {counters}")
    failures = []
    if code != 0:
        failures.append(f"daemon exited {code}, wanted 0")
    accounted = sum(statuses.values())
    if accounted != args.deployments:
        failures.append(
            f"{accounted}/{args.deployments} requests accounted for"
        )
    if counters["vetoed"] < 1:
        failures.append("safety envelope never vetoed a placement")
    if counters["dropped_conns"] < 1:
        failures.append("fault plan never dropped a connection")
    booked = (
        counters["submitted"] + counters["vetoed"] + counters["rejected"]
    )
    if booked != args.deployments:
        failures.append(
            f"ledger booked {booked} requests, client sent "
            f"{args.deployments} (lost or double-counted work)"
        )
    if health["safety"]["vetoes"].get("max_concurrent_remote", 0) < 1:
        failures.append("veto tally missing the concurrency constraint")
    if not ckpt.exists():
        failures.append("no drain checkpoint written")
    else:
        restored = OrchestratorDaemon.restore(ckpt)
        resaved = restored.save(out / "resaved.ckpt")
        if resaved.read_bytes() != ckpt.read_bytes():
            failures.append("warm restore is not bit-identical")
        else:
            print("warm restore: bit-identical checkpoint round-trip")
    stream = out / "obs" / "stream.jsonl"
    if not stream.exists():
        failures.append("no observability stream dumped")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"PASS: {counters['submitted']} admitted, "
        f"{counters['vetoed']} vetoed, {counters['rejected']} rejected, "
        f"{counters['dropped_conns']} conns dropped, clean drain"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
