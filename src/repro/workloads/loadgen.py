"""memtier-style closed-loop load generation and tail-latency model.

The paper measures LC applications with the official Redis Labs
``memtier_benchmark``: 4 threads x 200 closed-loop clients, SET:GET
1:10, constant per-client request counts (§IV-A).  This module models
the served tail latency of such a setup with a queueing approximation:

* the server's *service time* stretches with the same interference
  slowdown model as BE workloads (``WorkloadProfile.slowdown``);
* closed-loop load at utilization ``rho`` amplifies the tail by the
  classic ``1/(1-rho)`` waiting-time factor, normalized so that the
  nominal operating point reproduces the profile's ``base_p99_ms``;
* the p99.9 is a calm-regime multiple of the p99 that inflates further
  as the server approaches saturation (tails grow faster than medians).

This reproduces R4 (local ~ remote in isolation: the only difference is
the ~2% service stretch of remote mode) and R5 (the chasm once the
ThymesisFlow channel saturates, via the back-pressure term inside
``slowdown``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.testbed import SystemPressure
from repro.workloads.base import MemoryMode
from repro.workloads.redis import LCProfile

__all__ = ["LoadGenConfig", "LatencySample", "TailLatencyModel"]

#: Utilization ceiling: closed-loop clients cannot push a queue beyond
#: this point because they self-throttle waiting for responses.
_RHO_CEILING = 0.95


@dataclass(frozen=True)
class LoadGenConfig:
    """memtier_benchmark configuration of §IV-A."""

    threads: int = 4
    clients_per_thread: int = 200
    set_fraction: float = 1.0 / 11.0  # SET:GET = 1:10
    requests_per_client: int = 10000

    def __post_init__(self) -> None:
        if self.threads <= 0 or self.clients_per_thread <= 0:
            raise ValueError("threads and clients_per_thread must be positive")
        if not 0 < self.set_fraction < 1:
            raise ValueError("set_fraction must be in (0, 1)")
        if self.requests_per_client <= 0:
            raise ValueError("requests_per_client must be positive")

    @property
    def total_clients(self) -> int:
        return self.threads * self.clients_per_thread

    @property
    def total_requests(self) -> int:
        return self.total_clients * self.requests_per_client


@dataclass(frozen=True)
class LatencySample:
    """One measured operating point of an LC server."""

    p99_ms: float
    p999_ms: float
    served_ops: float
    offered_ops: float

    @property
    def saturated(self) -> bool:
        return self.served_ops < self.offered_ops * 0.999


class TailLatencyModel:
    """Queueing-based tail-latency model for :class:`LCProfile` servers."""

    def __init__(self, profile: LCProfile) -> None:
        self.profile = profile

    # -- operating point -------------------------------------------------
    def utilization(
        self, pressure: SystemPressure, mode: MemoryMode, load_scale: float = 1.0
    ) -> float:
        """Effective server utilization under interference.

        ``load_scale`` scales the offered load relative to the nominal
        memtier configuration (1.0 = the paper's constant load).
        """
        return self._rho(self.profile.slowdown(pressure, mode), load_scale)

    def _rho(self, stretch: float, load_scale: float) -> float:
        if load_scale < 0:
            raise ValueError("load_scale cannot be negative")
        return min(_RHO_CEILING, self.profile.nominal_rho * load_scale * stretch)

    def sample(
        self, pressure: SystemPressure, mode: MemoryMode, load_scale: float = 1.0
    ) -> LatencySample:
        """Tail latencies and throughput at one operating point."""
        return self.sample_at(self.profile.slowdown(pressure, mode), load_scale)

    def sample_at(self, stretch: float, load_scale: float = 1.0) -> LatencySample:
        """:meth:`sample` at a known service stretch: the profile's
        slowdown under the operating point's pressure, which a
        deployment's advance has already computed for its tick."""
        profile = self.profile
        rho = self._rho(stretch, load_scale)
        # Normalize the M/M/1-style tail amplification to 1.0 at the
        # nominal operating point so base_p99_ms is the isolated value.
        amplification = (1.0 - profile.nominal_rho) / (1.0 - rho)
        p99 = profile.base_p99_ms * stretch * amplification
        # Near saturation the extreme tail outgrows the p99.
        tail_stress = 1.0 + 1.5 * max(0.0, rho - profile.nominal_rho)
        p999 = p99 * profile.tail_ratio * tail_stress

        offered = profile.ops_per_sec * load_scale
        capacity = profile.ops_per_sec / profile.nominal_rho / stretch
        served = min(offered, capacity)
        return LatencySample(
            p99_ms=p99, p999_ms=p999, served_ops=served, offered_ops=offered
        )

    def time_to_serve(
        self,
        requests: int,
        pressure: SystemPressure,
        mode: MemoryMode,
        load_scale: float = 1.0,
    ) -> float:
        """Seconds needed to serve ``requests`` operations (Fig. 10 left)."""
        if requests <= 0:
            raise ValueError("requests must be positive")
        sample = self.sample(pressure, mode, load_scale)
        return requests / sample.served_ops

    def client_sweep(
        self,
        pressure: SystemPressure,
        mode: MemoryMode,
        client_counts: list[int],
        config: LoadGenConfig | None = None,
    ) -> list[LatencySample]:
        """Scale the closed-loop client population (Fig. 4 x-axis)."""
        config = config if config is not None else LoadGenConfig()
        if any(c <= 0 for c in client_counts):
            raise ValueError("client counts must be positive")
        return [
            self.sample(pressure, mode, load_scale=c / config.total_clients)
            for c in client_counts
        ]
