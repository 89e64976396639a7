"""serve-daemon: an open-loop client against the real ``repro serve`` process.

The daemon runs with its defaults (2 nodes) plus a pooled rack, the
sample safety envelope and ``--obs-out`` (metrics, audit log,
journeys).  It starts ``--paused``; the client's own ``tick`` requests
take the place of the wall-clock pump, so every response is the same
from run to run.

A single-threaded client opens one connection per request, as
``DaemonClient`` does, and sends a schedule fixed by the seed:

* exactly DEPLOYS Poisson ``deploy`` requests at RATE per second, each
  for an app drawn uniformly from the scenario pool;
* a ``complete`` for each admitted deployment once the simulated clock
  has advanced COMPLETE_AFTER_S, which keeps the running population
  stationary (no app in the pool finishes sooner on its own);
* exactly QUERIES Poisson ``query`` reads at QUERY_RATE per second,
  each for a uniformly drawn deployment admitted so far;
* a ``tick`` every 1/TICK_HZ seconds until the last complete is sent.

Ticks come at 25 Hz, not at the pump's default 100 Hz: at 100 Hz the
ticks alone kept the single daemon thread 40-55 % busy whenever the
shared host ran slow, and the medians flipped between requests that
waited behind a tick and requests that did not (over five seeds the
query p50 spread 76 %).  COMPLETE_AFTER_S is scaled with it, so about
eight deployments run at any time, as at 100 Hz with completes after
30 simulated seconds.

Each request is timed from its send to its response: one connection's
round trip through the server, the handler and back.  Time spent due
but not yet sent, behind the client's earlier requests, is left out of
the metrics.  The client sends one request at a time, so that wait
grows with the share of the run the client is busy, which swings with
the host's speed far more than any one request does: over eight seeds,
at the reference probe time, the deploy p50 and p90 timed from the due
time spread by 13 % and 18 %, timed from the send by 5 % and 12 %.  The
due-time p90s are printed as diagnostics, with the client's lateness.
The schedule is a whole unit: its length is part of the workload's
definition, whatever ``--seconds`` says.
"""

from __future__ import annotations

import heapq
import json
import random
import shutil
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    OUT_DIR,
    SETUP_REPEATS,
    HostProbe,
    add_setup,
    check_pinned,
    child_env,
    digest,
    latency_metrics,
    metric,
    percentile,
    pid_peak_rss_mb,
)

DEPLOYS = 1000
RATE = 25.0
#: Queries at the deploy rate.  Each request, however cheap in the
#: daemon, holds the single-threaded client for about a millisecond of
#: transport; at four queries per deploy the client was 40-50 % busy
#: whenever the shared host ran 1.6x slow, and the deploy p50 and p90
#: of those runs, timed from the due time, rose 1.8x and 2.9x.
QUERIES = 1000
QUERY_RATE = 25.0
TICK_HZ = 25
COMPLETE_AFTER_S = 8
SEED_BASE = 3_000_000
PROBE_INTERVAL_S = 0.1
PROBE_GAP_S = 0.006

clock = time.perf_counter


class Daemon:
    """One ``repro serve`` process, spawned and timed to its first response."""

    def __init__(self, out, index: int, traced: bool) -> None:
        from repro.serve import DaemonClient

        obs_dir = out / f"obs-{index}"
        args = [
            "serve", "--port", "0", "--paused", "--pool-regime", "pooled",
            "--safety", str(out / "envelope.json"), "--obs-out", str(obs_dir),
        ]
        self.spans = out / f"daemon-spans-{index}.npz" if traced else None
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "launch_daemon.py"),
                   str(self.spans), *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        start = clock()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=child_env()
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serve: listening on "):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        self.client = DaemonClient(port=port, retries=0, timeout_s=30.0)
        self.client.health()
        self.setup_s = clock() - start

    def drain(self) -> int:
        """Ask for a drain and wait for the process to exit."""
        self.client.drain("benchmark done")
        self.proc.stdout.read()
        return self.proc.wait(timeout=60)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def schedule(seed: int):
    """Deploy and query events as (due_s, order, seq, op, arg)."""
    from repro.cluster.scenario import default_pool

    rng = random.Random(SEED_BASE + seed)
    apps = [profile.name for profile in default_pool()]
    events = []
    first_deploy = None
    for op, count, rate in (("deploy", DEPLOYS, RATE),
                            ("query", QUERIES, QUERY_RATE)):
        # Queries start after the first deploy, so each has a target.
        due = first_deploy or 0.0
        for _ in range(count):
            due += rng.expovariate(rate)
            arg = rng.choice(apps) if op == "deploy" else rng.random()
            events.append((due, 2, len(events), op, arg))
            first_deploy = first_deploy or due
    return events


def drive(daemon: Daemon, seed: int, probe: HostProbe) -> dict:
    """Send the whole schedule; returns per-request records and outcomes.

    While idle before a request, the client runs a host-speed probe at
    most every PROBE_INTERVAL_S, and only when the request is due at
    least PROBE_GAP_S later, so probes never delay a request.
    """
    from repro.serve import DaemonClientError

    tick_s = 1.0 / TICK_HZ
    heap = schedule(seed)
    last_due = max(event[0] for event in heap)
    heapq.heapify(heap)
    heapq.heappush(heap, (0.0, 0, -1, "tick", 0))
    admitted: list[str] = []
    requests = []  # (seq, op, due, send, done, ok, probes taken)
    outcomes = []
    pending_completes = 0
    clock_now = 0
    start = clock()
    next_probe = 0.0
    while heap:
        due, _, _, op, arg = heapq.heappop(heap)
        now = clock() - start
        if due - now >= PROBE_GAP_S and now >= next_probe:
            probe.sample()
            next_probe = now + PROBE_INTERVAL_S
        wait = due - (clock() - start)
        if wait > 0:
            time.sleep(wait)
        seq = len(requests)
        if op == "tick":
            payload = {"op": "tick", "seq": seq}
        elif op == "deploy":
            payload = {"op": "deploy", "app": arg, "seq": seq}
        elif op == "query":
            target = admitted[int(arg * len(admitted))] if admitted else None
            payload = {"op": "query", "id": target, "seq": seq}
        else:
            payload = {"op": "complete", "id": arg, "seq": seq}
            pending_completes -= 1
        send = clock() - start
        try:
            response = daemon.client.request(payload)
        except DaemonClientError as error:
            response = {"ok": False, "error": str(error)}
        done = clock() - start
        ok = bool(response.get("ok"))
        requests.append((seq, op, due, send, done, ok, probe.taken))
        if op == "tick" and ok:
            clock_now = int(round(response["clock"]))
        elif op == "deploy":
            outcomes.append((response.get("status"), response.get("node"),
                             response.get("mode")))
            if ok and response.get("status") == "running":
                admitted.append(response["id"])
                # After tick index c+N-1 the clock reads c+N.
                after = clock_now + COMPLETE_AFTER_S - 1
                heapq.heappush(heap, (after * tick_s, 1, seq, "complete",
                                      response["id"]))
                pending_completes += 1
        if op == "tick":
            next_index = int(round(due * TICK_HZ)) + 1
            if next_index * tick_s <= last_due or pending_completes:
                heapq.heappush(heap, (next_index * tick_s, 0, next_index,
                                      "tick", 0))
    return {"requests": requests, "outcomes": outcomes}


def ledger_problems(health: dict) -> list[str]:
    counters = health["counters"]
    problems = []
    settled = counters["finished"] + health["running"] + health["parked"]
    if counters["submitted"] != settled:
        problems.append(
            f"ledger: submitted {counters['submitted']} != finished "
            f"{counters['finished']} + running {health['running']} + "
            f"parked {health['parked']}"
        )
    for key in ("double_finished", "malformed"):
        if counters[key]:
            problems.append(f"ledger: {key} = {counters[key]}")
    return problems


def run(seed: int, traced: bool) -> dict:
    from repro.serve import SafetyEnvelope

    out = OUT_DIR / "serve-daemon"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    SafetyEnvelope.sample().to_file(out / "envelope.json")
    setups = []
    repeats = 1 if traced else SETUP_REPEATS["serve-daemon"]
    for index in range(repeats):
        daemon = Daemon(out, index, traced)
        setups.append(daemon.setup_s)
        if index < repeats - 1:
            try:
                if daemon.drain() != 0:
                    raise RuntimeError("set-up daemon exited non-zero")
            finally:
                daemon.stop()
    try:
        probe = HostProbe()
        driven = drive(daemon, seed, probe)
        health = daemon.client.health()
        peak_rss = pid_peak_rss_mb(daemon.proc.pid)
        code = daemon.drain()
    finally:
        daemon.stop()
    requests = driven["requests"]
    failed = sum(1 for r in requests if not r[5])
    problems = ledger_problems(health)
    if failed:
        problems.append(f"{failed} requests were not answered ok")
    if code != 0:
        problems.append(f"daemon exited {code}")
    outcome_digest = digest(driven["outcomes"])
    problems += check_pinned("serve-daemon", seed, [outcome_digest])

    def answered(op):
        return [r for r in requests if r[1] == op and r[5]]

    def latencies(op, ref=False):
        """Send to response; at the reference probe time if ``ref``."""
        rows = answered(op)
        seconds = [r[4] - r[3] for r in rows]
        return probe.normalize(seconds, [r[6] for r in rows]) if ref else seconds

    def due_ms_p90(op):
        """Due time to response, as measured: the client's backlog too."""
        return percentile([(r[4] - r[2]) * 1e3 for r in answered(op)], 90)

    ticks = answered("tick")
    result = {
        "attempted": len(requests),
        "failed": failed,
        "problems": problems,
        "units": 1,
        "digests": [outcome_digest],
        "busy_s_per_unit": sum(r[4] - r[3] for r in requests),
        "busy_ref_s_per_unit": sum(
            (r[4] - r[3]) / probe.local(r[6]) for r in requests
        ),
        "diag": {
            "late_ms_p99": percentile([(r[3] - r[2]) * 1e3 for r in requests], 99),
            "deploy_due_ms_p90": due_ms_p90("deploy"),
            "query_due_ms_p90": due_ms_p90("query"),
            "requests": {op: len(answered(op))
                         for op in ("tick", "deploy", "query", "complete")},
            "downgrades": health["counters"]["downgraded"],
            "host_factor": probe.factor(),
            "probes": probe.taken,
        },
    }
    if not traced:
        # Simulated seconds (one per tick) per second of tick service.
        tick_s = sum(r[4] - r[3] for r in ticks)
        tick_ref_s = sum((r[4] - r[3]) / probe.local(r[6]) for r in ticks)
        result["raw"] = {
            "sim_s_per_s": metric(len(ticks) / tick_s, "sim_s/s", len(ticks)),
            **latency_metrics("latency_ms", latencies("deploy")),
            **latency_metrics("read_ms", latencies("query")),
        }
        result["ref"] = {
            "sim_s_per_s": metric(len(ticks) / tick_ref_s, "sim_s/s", len(ticks)),
            **latency_metrics("latency_ms", latencies("deploy", ref=True)),
            **latency_metrics("read_ms", latencies("query", ref=True)),
        }
        result["metrics"] = {
            "peak_rss_mb": metric(peak_rss, "MB"),
            **result["ref"],
        }
    else:
        result.update(traced_metrics(daemon, requests, health, failed, out))
    return add_setup(result, setups, traced)


def traced_metrics(daemon: Daemon, requests, health, failed, out) -> dict:
    """Per-layer metrics from the daemon's spans joined with the client's."""
    import spans

    import numpy as np

    names, counts, arrays = spans.load(daemon.spans)
    summary = spans.summarize(names, arrays)
    request_ids = [i for i, name in enumerate(names)
                   if name.startswith("serve.") and name != "serve.safety"]
    mask = np.isin(arrays["name"], request_ids)
    handled = dict(zip(
        arrays["tag"][mask].tolist(),
        (arrays["end"] - arrays["start"])[mask].tolist(),
    ))
    waits = [
        ((done - due) - handled[seq]) * 1e3
        for seq, _, due, _, done, ok, _ in requests if ok and seq in handled
    ]
    (out / "client_spans.json").write_text(json.dumps(requests))
    extra = {
        "downgrades": health["counters"]["downgraded"],
        "wait_ms_p50": percentile(waits, 50),
        "wait_ms_p99": percentile(waits, 99),
        "failed": failed,
    }
    values, bases = spans.layer_values(summary, counts, extra)
    return {
        "layers": summary,
        "layer_counts": counts,
        "metrics": values,
        "bases": bases,
    }
