"""Composition of the two-node disaggregated testbed.

The :class:`Testbed` aggregates per-application resource demands for a
simulation tick, resolves contention on every shared resource (cores,
L2, LLC, local DRAM bus, ThymesisFlow link) and reports both the
resulting :class:`SystemPressure` and a synthesized perf-counter sample.
The cluster engine combines the pressure with per-workload sensitivity
vectors to obtain application slowdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.cache import CacheState, SharedCache
from repro.hardware.config import TestbedConfig
from repro.hardware.counters import CounterSynthesizer
from repro.hardware.link import LinkState, ThymesisFlowLink
from repro.hardware.memory import LocalMemory, MemoryState

__all__ = ["ResourceDemand", "SystemPressure", "Testbed"]


@dataclass(frozen=True)
class ResourceDemand:
    """Per-application demand vector for one tick.

    All bandwidths are in Gbps, working sets in MB, capacities in GB.
    ``local_bw_gbps`` / ``remote_bw_gbps`` reflect the deployment mode:
    an application in remote mode moves its memory traffic to the
    ThymesisFlow link (while still consuming local controllers per R3,
    handled by the counter model).
    """

    cpu_threads: float = 0.0
    l2_mb: float = 0.0
    llc_mb: float = 0.0
    llc_access_gbps: float = 0.0
    local_bw_gbps: float = 0.0
    remote_bw_gbps: float = 0.0
    local_gb: float = 0.0
    remote_gb: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "cpu_threads",
            "l2_mb",
            "llc_mb",
            "llc_access_gbps",
            "local_bw_gbps",
            "remote_bw_gbps",
            "local_gb",
            "remote_gb",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")

    def __add__(self, other: "ResourceDemand") -> "ResourceDemand":
        return ResourceDemand(
            cpu_threads=self.cpu_threads + other.cpu_threads,
            l2_mb=self.l2_mb + other.l2_mb,
            llc_mb=self.llc_mb + other.llc_mb,
            llc_access_gbps=self.llc_access_gbps + other.llc_access_gbps,
            local_bw_gbps=self.local_bw_gbps + other.local_bw_gbps,
            remote_bw_gbps=self.remote_bw_gbps + other.remote_bw_gbps,
            local_gb=self.local_gb + other.local_gb,
            remote_gb=self.remote_gb + other.remote_gb,
        )

    @staticmethod
    def total(demands: list["ResourceDemand"]) -> "ResourceDemand":
        """Left fold of ``demands`` in list order; zero for no demands.

        The fold starts at the first demand rather than at a zero one:
        ``0.0 + x`` is ``x`` bit for bit for every field value but
        ``-0.0``, so the partial sums are those of a zero start, and the
        total of one demand (an engine's kept aggregate) allocates
        nothing.
        """
        if not demands:
            return ResourceDemand()
        acc = demands[0]
        for demand in demands[1:]:
            acc = acc + demand
        return acc


def _term():
    """A pressure term: derived in ``__post_init__``, not passed in."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class SystemPressure:
    """Resolved contention state of every shared resource for one tick.

    Besides the resolved states it carries the seven pressure terms
    :meth:`repro.workloads.base.WorkloadProfile.slowdown` reads, so a
    tick that advances n co-located apps derives them once instead of n
    times.  They are set eagerly when the pressure is built: a
    ``functools.cached_property`` takes a lock on each first read under
    Python 3.11, which costs more than the arithmetic it would defer.
    """

    cpu_utilization: float       # total threads / logical cores
    l2: CacheState
    llc: CacheState
    memory: MemoryState
    link: LinkState
    #: Aggregate demand that produced this state (kept for counter
    #: synthesis and traffic accounting).
    total_demand: ResourceDemand = field(default_factory=ResourceDemand)
    #: Excess CPU demand beyond the available cores (>= 0).
    cpu_oversubscription: float = _term()
    #: L2 and LLC miss inflation.
    l2_inflation: float = _term()
    llc_inflation: float = _term()
    #: Local DRAM access-time stretch beyond 1 (>= 0).
    queuing_excess: float = _term()
    #: Link back-pressure stretch beyond 1 (>= 0).
    backpressure_excess: float = _term()
    #: Fractional link latency increase over the unloaded channel (>= 0).
    latency_ratio: float = _term()
    #: Cost multiplier of an LLC miss served over the link:
    #: 1 + 0.5·min(1, link utilization).
    remote_llc_factor: float = _term()

    def __post_init__(self) -> None:
        # Every resolve builds one pressure: each change of an engine's
        # inputs and each hypothetical placement.  So this stays cheap:
        # the terms go straight into the instance dict (the class is
        # frozen), and each max(0, x) / min(1, x) is a conditional,
        # which returns the same float as the builtin.
        link = self.link
        over = self.cpu_utilization - 1.0
        # LinkState.latency_ratio, without the property call.
        ratio = link.latency_cycles / link.base_latency_cycles - 1.0
        utilization = link.utilization
        terms = self.__dict__
        terms["cpu_oversubscription"] = over if over > 0.0 else 0.0
        terms["l2_inflation"] = self.l2.miss_inflation
        terms["llc_inflation"] = self.llc.miss_inflation
        terms["queuing_excess"] = self.memory.queuing_factor - 1.0
        terms["backpressure_excess"] = link.backpressure - 1.0
        terms["latency_ratio"] = ratio if ratio > 0.0 else 0.0
        terms["remote_llc_factor"] = 1.0 + 0.5 * (
            utilization if utilization < 1.0 else 1.0
        )


class Testbed:
    """Analytic two-node ThymesisFlow testbed.

    Contention is an instantaneous function of aggregate demand and the
    link's capacity and latency factors, which matches the steady-state
    character of the paper's characterization sweeps: :meth:`resolve`
    keeps no state.  :meth:`sample_counters` keeps the noise-free
    counter row of the last pressure it sampled, and the counter noise
    RNG advances with every sample.
    """

    def __init__(self, config: TestbedConfig | None = None) -> None:
        self.config = config if config is not None else TestbedConfig()
        node = self.config.node
        self.link = ThymesisFlowLink(self.config.link)
        self.llc = SharedCache(node.llc_mb)
        # Private L2s conflict only through SMT sharing; milder slope.
        self.l2 = SharedCache(node.l2_mb, pressure_floor=0.8, inflation_slope=0.6)
        self.memory = LocalMemory(node.dram_bw_gbps, node.dram_gb)
        self.counters = CounterSynthesizer(
            flit_bytes=self.config.link.flit_bytes,
            noise=self.config.counter_noise,
            seed=self.config.seed,
        )
        #: The pressure :meth:`sample_counters` last sampled, and its
        #: noise-free counter row (never handed out: samples are copies).
        self._counter_pressure: SystemPressure | None = None
        self._counter_mean: np.ndarray | None = None

    def resolve(
        self,
        demands: list[ResourceDemand],
        link_capacity_factor: float = 1.0,
        link_latency_factor: float = 1.0,
    ) -> SystemPressure:
        """Resolve shared-resource contention for one tick.

        ``link_capacity_factor`` scales the ThymesisFlow channel's
        capacity for this resolution and ``link_latency_factor`` its
        latency: the rack-pool arbiter
        (:class:`repro.hardware.pool.RemotePool`) throttles a node's
        lane when the pool fabric saturates, and a link fault degrades
        or cuts it (see :class:`repro.cluster.engine.ClusterEngine`,
        which composes the two).  The defaults of 1 leave single-node
        behaviour bit-identical.
        """
        total = ResourceDemand.total(demands)
        if total.local_gb > self.config.node.dram_gb:
            raise MemoryError(
                f"local DRAM capacity exceeded: {total.local_gb:.1f} GB "
                f"> {self.config.node.dram_gb:.1f} GB"
            )
        if total.remote_gb > self.config.node.remote_gb:
            raise MemoryError(
                f"remote memory capacity exceeded: {total.remote_gb:.1f} GB "
                f"> {self.config.node.remote_gb:.1f} GB"
            )
        return SystemPressure(
            cpu_utilization=total.cpu_threads / self.config.node.logical_cores,
            l2=self.l2.resolve(total.l2_mb),
            llc=self.llc.resolve(total.llc_mb),
            memory=self.memory.resolve(total.local_bw_gbps, total.local_gb),
            link=self.link.resolve(
                total.remote_bw_gbps,
                capacity_factor=link_capacity_factor,
                latency_factor=link_latency_factor,
            ),
            total_demand=total,
        )

    def sample_counters(self, pressure: SystemPressure) -> np.ndarray:
        """Synthesize the Watcher's seven events from resolved pressure,
        as one new float64 row in ``METRIC_NAMES`` order.

        The noise-free row is derived once per pressure object (an
        engine reads the same one until its inputs change); the noise
        is drawn on every call, so the RNG advances as it always has.
        """
        if pressure is not self._counter_pressure:
            self._counter_pressure = pressure
            self._counter_mean = self.counters.mean_row(
                llc_access_gbps=pressure.total_demand.llc_access_gbps,
                miss_inflation=pressure.llc.miss_inflation,
                local_bw_gbps=pressure.memory.delivered_gbps,
                remote_delivered_gbps=pressure.link.delivered_gbps,
                link_latency_cycles=pressure.link.latency_cycles,
            )
        return self.counters.perturb(self._counter_mean)
