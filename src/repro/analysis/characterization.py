"""Characterization drivers for §IV (Figs. 2-5).

Each function reproduces one characterization experiment on a fresh
simulated testbed and returns plain data structures; the corresponding
``repro.experiments`` modules format them as the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass



from repro.cluster.engine import ClusterEngine
from repro.hardware.config import TestbedConfig
from repro.hardware.counters import PerfCounters
from repro.hardware.testbed import Testbed
from repro.workloads.base import MemoryMode, WorkloadProfile
from repro.workloads.ibench import IBENCH_KINDS, ibench_profile
from repro.workloads.loadgen import LatencySample, TailLatencyModel
from repro.workloads.redis import LCProfile

__all__ = [
    "SaturationPoint",
    "link_saturation_sweep",
    "isolation_comparison",
    "lc_client_sweep",
    "interference_slowdown",
    "interference_heatmap",
]


@dataclass(frozen=True)
class SaturationPoint:
    """One column of Fig. 2: N memBw trashers forced onto remote memory."""

    n_microbenchmarks: int
    offered_gbps: float
    delivered_gbps: float
    latency_cycles: float
    backpressure: float
    counters: PerfCounters


def link_saturation_sweep(
    counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    config: TestbedConfig | None = None,
) -> list[SaturationPoint]:
    """Fig. 2: spawn increasing numbers of memBw trashers on remote memory."""
    if any(c <= 0 for c in counts):
        raise ValueError("microbenchmark counts must be positive")
    testbed = Testbed(config)
    trasher = ibench_profile("memBw")
    points = []
    for count in counts:
        demands = [trasher.demand(MemoryMode.REMOTE) for _ in range(count)]
        pressure = testbed.resolve(demands)
        points.append(
            SaturationPoint(
                n_microbenchmarks=count,
                offered_gbps=pressure.link.offered_gbps,
                delivered_gbps=pressure.link.delivered_gbps,
                latency_cycles=pressure.link.latency_cycles,
                backpressure=pressure.link.backpressure,
                counters=PerfCounters.from_array(testbed.sample_counters(pressure)),
            )
        )
    return points


def isolation_comparison(
    profiles: list[WorkloadProfile],
    config: TestbedConfig | None = None,
) -> dict[str, dict[str, float]]:
    """Fig. 3: isolated local vs remote performance per benchmark.

    Returns ``{name: {"local": perf, "remote": perf, "ratio": r}}``
    where perf is runtime (BE) or p99 (LC).
    """
    engine = ClusterEngine(testbed=Testbed(config))
    results: dict[str, dict[str, float]] = {}
    for profile in profiles:
        local = engine.measure_isolated(profile, MemoryMode.LOCAL)
        remote = engine.measure_isolated(profile, MemoryMode.REMOTE)
        results[profile.name] = {
            "local": local,
            "remote": remote,
            "ratio": remote / local,
        }
    return results


def lc_client_sweep(
    profile: LCProfile,
    client_counts: tuple[int, ...] = (100, 200, 400, 800, 1200),
    config: TestbedConfig | None = None,
) -> dict[str, list[LatencySample]]:
    """Fig. 4: tail latency vs closed-loop clients, local vs remote."""
    testbed = Testbed(config)
    model = TailLatencyModel(profile)
    out: dict[str, list[LatencySample]] = {}
    for mode in (MemoryMode.LOCAL, MemoryMode.REMOTE):
        pressure = testbed.resolve([profile.demand(mode)])
        out[mode.value] = model.client_sweep(pressure, mode, list(client_counts))
    return out


def interference_slowdown(
    profile: WorkloadProfile,
    ibench_kind: str,
    n_trashers: int,
    mode: MemoryMode,
    config: TestbedConfig | None = None,
) -> float:
    """Measured performance of ``profile`` under co-located trashers.

    Trashers share the application's memory mode, exactly as in §IV-C
    ("if the application is deployed on local memory, so are the ibench
    microbenchmarks and vice-versa").
    """
    if n_trashers < 0:
        raise ValueError("n_trashers cannot be negative")
    engine = ClusterEngine(testbed=Testbed(config))
    trasher = ibench_profile(ibench_kind)
    # Long-lived trashers: they outlive the application under test.
    for _ in range(n_trashers):
        engine.deploy(trasher, mode, duration_s=1e7)
    target = engine.deploy(profile, mode)
    while target.running:
        engine.tick()
    return engine.trace.records[-1].performance


def interference_heatmap(
    profile: WorkloadProfile,
    counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    kinds: tuple[str, ...] = IBENCH_KINDS,
    config: TestbedConfig | None = None,
) -> dict[str, dict[int, float]]:
    """Fig. 5: remote/local slowdown ratio per interference scenario.

    Cell value > 1 means the same interference hurts the remote
    deployment more than the local one (the paper's cell density).
    """
    heatmap: dict[str, dict[int, float]] = {}
    for kind in kinds:
        row: dict[int, float] = {}
        for count in counts:
            local = interference_slowdown(
                profile, kind, count, MemoryMode.LOCAL, config
            )
            remote = interference_slowdown(
                profile, kind, count, MemoryMode.REMOTE, config
            )
            row[count] = remote / local
        heatmap[kind] = row
    return heatmap
