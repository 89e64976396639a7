#!/usr/bin/env python3
"""Child process of run.py for the replay-adrias and fleet-rack workloads.

    python3 perfbench/sim.py WORKLOAD --seed N --seconds S --trace 0|1 \
        --result FILE [--setup-only]

Sets up, prints ``perfbench-ready`` (run.py times set-up from spawning
this process to that line), then replays whole one-hour scenarios and
writes its measurements to FILE as JSON.  The number of scenarios is
fixed by ``--seconds`` alone (see :func:`unit_count`), never by how fast
they run: costs grow with simulated time, so a run's length is part of
the workload's definition, and traced and untraced runs do the same
work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from common import OUT_DIR, PINNED_ENV, SRC, HostProbe

os.environ.update(PINNED_ENV)  # before numpy loads OpenBLAS
sys.path.insert(0, str(SRC))

READY = "perfbench-ready"

SCENARIO_S = 3600.0
#: Nominal wall seconds of one scenario, and the fewest scenarios that
#: give every percentile 1,000 samples, so that ten lie beyond its p99
#: (a replay scenario makes about 290 decisions and 240 window reads, a
#: rack scenario about 1,300 placements).
UNIT_S = {"replay-adrias": 3.0, "fleet-rack": 7.5}
MIN_UNITS = {"replay-adrias": 5, "fleet-rack": 1}
#: A host-speed probe runs after every this many scheduler calls.
PROBE_EVERY = 10

# replay-adrias: the paper's congested §V-B1 arrivals under Adrias at
# β = 0.8 with the Fig. 17 QoS targets.  Scenario seeds start far from
# the quick-scale training seeds (0..5) and fig16's held-out 10_000+.
REPLAY_INTERVAL = (5.0, 20.0)
REPLAY_BETA = 0.8
REPLAY_QOS_MS = {"redis": 4.0, "memcached": 3.0}
REPLAY_SEED_BASE = 1_000_000

# fleet-rack: `repro run fleet`'s 8-node pooled rack and arrival mix.
FLEET_NODES = 8
FLEET_INTERVAL = (5.0, 40.0)
FLEET_SEED_BASE = 2_000_000

clock = time.perf_counter


def unit_seed(base: int, seed: int, index: int) -> int:
    return base + 1000 * seed + index


def unit_count(workload: str, seconds: float) -> int:
    return max(MIN_UNITS[workload], math.ceil(seconds / UNIT_S[workload]))


class Workload:
    """What both replays share: samples, and probes between scheduler calls."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.latencies: list[float] = []
        self.reads: list[float] = []
        #: Probes taken before each latency / read sample.
        self.latency_at: list[int] = []
        self.read_at: list[int] = []
        self.probe: HostProbe | None = None
        self._calls = 0

    def probes_taken(self) -> int:
        return self.probe.taken if self.probe is not None else 0

    def between_calls(self) -> None:
        """Run a host-speed probe every PROBE_EVERY scheduler calls."""
        self._calls += 1
        if self.probe is not None and self._calls % PROBE_EVERY == 0:
            self.probe.sample()


class Replay(Workload):
    """replay-adrias: one node, Adrias decisions from a quick-trained predictor."""

    def __init__(self, seed: int) -> None:
        from repro.experiments.common import QUICK, get_predictor, get_signatures

        super().__init__(seed)
        self.predictor = get_predictor(QUICK)
        get_signatures()  # captured for training; the policy reuses them
        self.degraded = 0

    def time_reads(self) -> None:
        """Time every telemetry-window read (one per Adrias decision)."""
        from repro.cluster.trace import Trace

        window, reads = Trace.window, self.reads

        def timed(trace, *args, **kwargs):
            start = clock()
            rows = window(trace, *args, **kwargs)
            reads.append(clock() - start)
            self.read_at.append(self.probes_taken())
            return rows

        Trace.window = timed

    def unit(self, index: int) -> dict:
        from repro.cluster.scenario import ScenarioConfig, run_scenario
        from repro.orchestrator.policies import AdriasPolicy

        config = ScenarioConfig(
            duration_s=SCENARIO_S,
            spawn_interval=REPLAY_INTERVAL,
            seed=unit_seed(REPLAY_SEED_BASE, self.seed, index),
        )
        policy = AdriasPolicy(
            self.predictor, beta=REPLAY_BETA, qos_p99_ms=REPLAY_QOS_MS
        )
        latencies = self.latencies

        def scheduler(profile, engine):
            self.between_calls()
            start = clock()
            mode = policy(profile, engine)
            latencies.append(clock() - start)
            self.latency_at.append(self.probes_taken())
            return mode

        start, first = clock(), self.probes_taken()
        trace = run_scenario(config, scheduler=scheduler)
        end = clock()
        self.degraded += policy.degraded_decisions
        outcomes = [(r.name, r.mode.value) for r in trace.records]
        return {"span": (start, end, first, self.probes_taken()),
                "sim_s": trace.times[-1], "outcomes": outcomes}

    def counts(self) -> tuple[int, int, list[str]]:
        problems = []
        if self.degraded:
            problems.append(
                f"{self.degraded} decisions fell back to the degradation "
                "ladder: the run timed the fallback, not the predictor"
            )
        return len(self.latencies), self.degraded, problems


class Fleet(Workload):
    """fleet-rack: 8 nodes on a pooled rack, two-level placement."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._time_reads = False
        self.raised = 0
        self.problems: list[str] = []
        self._first = self._build(0)

    def _build(self, index: int):
        """Rack and scenario for unit ``index``, provisioned as
        ``repro run fleet`` does (its module loads every layer the replay
        needs, so unit 0's build completes set-up)."""
        from repro.cluster.fleet import ClusterFleet
        from repro.cluster.fleet_scenario import FleetScenarioConfig
        from repro.cluster.scenario import ScenarioConfig
        from repro.experiments.fleet_scaling import FABRIC_OVERSUB
        from repro.hardware.config import TestbedConfig
        from repro.hardware.pool import PoolRegime, RemotePoolConfig

        seed = unit_seed(FLEET_SEED_BASE, self.seed, index)
        base = TestbedConfig(seed=seed)
        pool = RemotePoolConfig(
            capacity_gb=base.node.remote_gb * FLEET_NODES,
            aggregate_bw_gbps=base.link.capacity_gbps * FLEET_NODES * FABRIC_OVERSUB,
            regime=PoolRegime.POOLED,
        )
        low, high = FLEET_INTERVAL
        scenario = ScenarioConfig(
            duration_s=SCENARIO_S,
            spawn_interval=(low / FLEET_NODES, high / FLEET_NODES),
            seed=seed,
        )
        config = FleetScenarioConfig(scenario=scenario, n_nodes=FLEET_NODES, pool=pool)
        fleet = ClusterFleet(n_nodes=FLEET_NODES, testbed_config=base, pool=pool)
        return config, fleet

    def time_reads(self) -> None:
        """Time every node ranking (one per placement) from now on."""
        self._time_reads = True

    def unit(self, index: int) -> dict:
        from repro.cluster.engine import CapacityError
        from repro.cluster.fleet import PoolAwarePlacement
        from repro.cluster.fleet_scenario import run_fleet_scenario
        from repro.orchestrator.policies import InterferenceThresholdPolicy

        if index == 0:
            (config, fleet), self._first = self._first, None
        else:
            config, fleet = self._build(index)
        placement = PoolAwarePlacement(InterferenceThresholdPolicy())
        if self._time_reads:
            node_order, reads = placement.node_order, self.reads

            def timed_order(fleet):
                start = clock()
                order = node_order(fleet)
                reads.append(clock() - start)
                self.read_at.append(self.probes_taken())
                return order

            placement.node_order = timed_order
        latencies, outcomes = self.latencies, []

        def scheduler(profile, fleet):
            self.between_calls()
            start = clock()
            try:
                decision = placement(profile, fleet)
            except CapacityError:
                self.raised += 1
                raise
            latencies.append(clock() - start)
            self.latency_at.append(self.probes_taken())
            outcomes.append((decision.node_index, decision.mode.value))
            return decision

        start, first = clock(), self.probes_taken()
        run_fleet_scenario(config, scheduler=scheduler, fleet=fleet)
        end = clock()
        ledger = fleet.accounting()
        if ledger["submitted"] != ledger["total"] or ledger["running"] or ledger["parked"]:
            self.problems.append(f"unit {index}: rack ledger off after drain: {ledger}")
        outcomes.append(("throttled_ticks", fleet.pool_throttled_ticks))
        return {"span": (start, end, first, self.probes_taken()),
                "sim_s": fleet.now, "outcomes": outcomes}

    def counts(self) -> tuple[int, int, list[str]]:
        return len(self.latencies) + self.raised, self.raised, self.problems


WORKLOADS = {"replay-adrias": Replay, "fleet-rack": Fleet}


def measure(args, workload) -> dict:
    from common import (
        check_pinned,
        digest,
        latency_metrics,
        metric,
        self_peak_rss_mb,
    )

    log = None
    if args.trace:
        import spans

        log = spans.SpanLog()
        spans.install(log)
    else:
        workload.time_reads()
    workload.probe = HostProbe()
    units = [
        workload.unit(index)
        for index in range(unit_count(args.workload, args.seconds))
    ]
    peak_rss = self_peak_rss_mb()  # before the analysis below loads scipy
    attempted, failed, problems = workload.counts()
    digests = [digest(u["outcomes"]) for u in units]
    problems += check_pinned(args.workload, args.seed, digests)
    probe = workload.probe
    # Busy time of the scenarios, without the probes run between calls.
    busy = sum(
        end - start - sum(probe.samples[first:last])
        for start, end, first, last in (u["span"] for u in units)
    )
    busy_ref = sum(probe.busy(*u["span"]) for u in units)
    sim_s = sum(u["sim_s"] for u in units)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "units": len(units),
        "digests": digests,
        "busy_s_per_unit": busy / len(units),
        "busy_ref_s_per_unit": busy_ref / len(units),
        "diag": {"host_factor": probe.factor(), "probes": probe.taken},
    }
    if log is None:
        result["raw"] = {
            "sim_s_per_s": metric(sim_s / busy, "sim_s/s", len(units)),
            **latency_metrics("latency_ms", workload.latencies),
            **latency_metrics("read_ms", workload.reads),
        }
        result["ref"] = {
            "sim_s_per_s": metric(sim_s / busy_ref, "sim_s/s", len(units)),
            **latency_metrics(
                "latency_ms", probe.normalize(workload.latencies, workload.latency_at)
            ),
            **latency_metrics(
                "read_ms", probe.normalize(workload.reads, workload.read_at)
            ),
        }
        result["metrics"] = {
            "peak_rss_mb": metric(peak_rss, "MB"),
            **result["ref"],
        }
    else:
        import spans

        out = OUT_DIR / args.workload
        out.mkdir(parents=True, exist_ok=True)
        log.save(out / "spans.npz")
        summary = spans.summarize(log.names, log.arrays())
        extra = {"degraded": getattr(workload, "degraded", 0)}
        result["layers"] = summary
        result["layer_counts"] = log.counts
        result["metrics"], result["bases"] = spans.layer_values(
            summary, log.counts, extra
        )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed)
    print(READY, flush=True)
    if args.setup_only:
        return 0
    args.result.write_text(json.dumps(measure(args, workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
