"""Workload abstractions: profiles, demand generation and slowdown model.

A workload is described by a static :class:`WorkloadProfile` capturing

* the resources it *demands* (cores, cache working sets, memory
  bandwidth and footprint), which drive contention for everyone else;
* how *sensitive* it is to pressure on each shared resource
  (:class:`SensitivityVector`), which drives its own slowdown;
* its isolated remote-memory behaviour: the ``remote_slowdown`` ratio of
  Fig. 3 and the ``stacking`` coefficient of remark R7 (applications
  such as nweight/sort/kmeans whose remote performance degrades even
  under cpu/L2-only interference).

The slowdown model is multiplicative over additive per-resource
contributions — the standard analytic interference formulation — and is
calibrated against the paper's characterization in
``tests/workloads/test_calibration.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.hardware.testbed import ResourceDemand, SystemPressure

__all__ = [
    "WorkloadKind",
    "MemoryMode",
    "SensitivityVector",
    "WorkloadProfile",
]


class WorkloadKind(enum.Enum):
    """Cloud workload classes of §IV-A."""

    BEST_EFFORT = "be"
    LATENCY_CRITICAL = "lc"
    INTERFERENCE = "ibench"


class MemoryMode(enum.Enum):
    """Memory allocation modes the Orchestrator decides between."""

    LOCAL = "local"
    REMOTE = "remote"

    @property
    def other(self) -> "MemoryMode":
        return MemoryMode.REMOTE if self is MemoryMode.LOCAL else MemoryMode.LOCAL


@dataclass(frozen=True)
class SensitivityVector:
    """Susceptibility to contention on each shared resource.

    Each entry scales the corresponding pressure term into a fractional
    slowdown; 0 means immune, 1 means the pressure term translates 1:1
    into relative slowdown.
    """

    cpu: float = 0.0
    l2: float = 0.0
    llc: float = 0.0
    membw: float = 0.0
    #: Sensitivity to ThymesisFlow back-pressure/latency when in remote
    #: mode.  In-memory databases (pointer chasing, low spatial
    #: locality) have low llc but high membw/link sensitivity (R6).
    link: float = 1.0

    def __post_init__(self) -> None:
        for name in ("cpu", "l2", "llc", "membw", "link"):
            if getattr(self, name) < 0:
                raise ValueError(f"sensitivity {name} cannot be negative")


@dataclass(frozen=True)
class WorkloadProfile:
    """Static description of a deployable workload."""

    name: str
    kind: WorkloadKind
    #: Isolated local-memory runtime in seconds (BE) or serving duration
    #: (LC / iBench).
    nominal_runtime_s: float
    #: Isolated remote/local runtime ratio (Fig. 3): nweight ~2x,
    #: gmm/pca < 1.1x.
    remote_slowdown: float = 1.0
    #: Remark R7 coefficient: amplification of cpu/L2 interference when
    #: running from remote memory.  Zero for most applications.
    stacking: float = 0.0
    #: Demand vector components.
    cpu_threads: float = 1.0
    l2_mb: float = 0.5
    llc_mb: float = 1.0
    llc_access_gbps: float = 1.0
    #: Memory bandwidth demand when local (Gbps at full speed).
    mem_bw_gbps: float = 1.0
    #: Steady-state offered load on the ThymesisFlow link when remote
    #: (Gbps); much smaller than local bandwidth because only
    #: LLC-missing traffic traverses the link.
    remote_bw_gbps: float = 0.3
    #: Resident memory footprint in GB.
    footprint_gb: float = 4.0
    sensitivity: SensitivityVector = field(default_factory=SensitivityVector)
    #: Weight of the link latency ratio in the remote penalty.
    latency_weight: float = 0.15
    #: Weight of the link back-pressure stretch in the remote penalty.
    backpressure_weight: float = 0.6

    def __post_init__(self) -> None:
        if self.nominal_runtime_s <= 0:
            raise ValueError("nominal_runtime_s must be positive")
        if self.remote_slowdown < 1.0:
            raise ValueError("remote_slowdown must be >= 1 (remote is never faster in isolation)")
        if self.stacking < 0:
            raise ValueError("stacking cannot be negative")
        for name in (
            "cpu_threads",
            "l2_mb",
            "llc_mb",
            "llc_access_gbps",
            "mem_bw_gbps",
            "remote_bw_gbps",
            "footprint_gb",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        # Both demands are built (and validated) once, here: demand(mode)
        # runs for every in-flight app, so it must not allocate.
        object.__setattr__(self, "_local_demand", ResourceDemand(
            cpu_threads=self.cpu_threads,
            l2_mb=self.l2_mb,
            llc_mb=self.llc_mb,
            llc_access_gbps=self.llc_access_gbps,
            local_bw_gbps=self.mem_bw_gbps,
            local_gb=self.footprint_gb,
        ))
        object.__setattr__(self, "_remote_demand", ResourceDemand(
            cpu_threads=self.cpu_threads,
            l2_mb=self.l2_mb,
            llc_mb=self.llc_mb,
            llc_access_gbps=self.llc_access_gbps,
            remote_bw_gbps=self.remote_bw_gbps,
            remote_gb=self.footprint_gb,
        ))

    # -- demand --------------------------------------------------------
    def demand(self, mode: MemoryMode) -> ResourceDemand:
        """Resource demand exerted on the testbed in the given mode.

        In remote mode the memory traffic moves to the link (the local
        controllers still reflect it via the counter model, per R3), and
        the footprint occupies lender memory instead of local DRAM.
        """
        if mode is MemoryMode.LOCAL:
            return self._local_demand
        return self._remote_demand

    # -- slowdown ------------------------------------------------------
    def slowdown(self, pressure: SystemPressure, mode: MemoryMode) -> float:
        """Instantaneous slowdown factor (>= 1) under the given pressure.

        Local mode::

            1 + s_cpu·over + s_l2·infl + s_llc·infl + s_mem·(queue-1)

        Remote mode::

            remote_slowdown · (1 + (1+stacking)·(s_cpu·over + s_l2·infl)
                                 + s_llc·infl + link_penalty)

        where ``link_penalty`` combines back-pressure stretch and the
        latency ratio of the channel.  The stacking term reproduces R7;
        the back-pressure term reproduces R5 (the performance chasm once
        the channel saturates).
        """
        sens = self.sensitivity
        c_cpu = sens.cpu * pressure.cpu_oversubscription
        c_l2 = sens.l2 * pressure.l2.miss_inflation
        c_llc = sens.llc * pressure.llc.miss_inflation

        if mode is MemoryMode.LOCAL:
            c_mem = sens.membw * (pressure.memory.queuing_factor - 1.0)
            return 1.0 + c_cpu + c_l2 + c_llc + c_mem

        amplify = 1.0 + self.stacking
        link = pressure.link
        link_penalty = sens.link * (
            self.backpressure_weight * (link.backpressure - 1.0)
            + self.latency_weight * link.latency_ratio
        )
        # LLC misses on remote mode hit the slow link rather than DRAM,
        # so cache contention also costs more there (part of R5/R6).
        remote_llc = c_llc * (1.0 + 0.5 * min(1.0, link.utilization))
        return self.remote_slowdown * (
            1.0 + amplify * (c_cpu + c_l2) + remote_llc + link_penalty
        )

    # -- convenience -----------------------------------------------------
    def isolated_runtime(self, mode: MemoryMode) -> float:
        """Runtime with no co-located tenants (Fig. 3 operating point)."""
        if mode is MemoryMode.LOCAL:
            return self.nominal_runtime_s
        return self.nominal_runtime_s * self.remote_slowdown

    def with_overrides(self, **kwargs) -> "WorkloadProfile":
        """Copy with selected fields replaced (for what-if studies)."""
        return replace(self, **kwargs)
