"""ThymesisFlow interconnect model.

Encodes the three regimes measured in §IV-B on the real prototype:

* **R1 — bounded throughput.** Delivered bandwidth saturates at
  ``capacity_gbps`` (~2.5 Gbps) no matter the offered load.
* **R2 — two-level latency.** Channel latency sits at ~350 cycles until
  the channel saturates, then the FPGA back-pressure mechanism delays
  transactions and latency plateaus at ~900 cycles.  The transition is a
  logistic in offered-load/capacity.
* **Back-pressure stretch.** Once offered load exceeds capacity, every
  remote access is delayed proportionally (offered/delivered), which the
  cluster engine turns into per-application slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.hardware.config import LinkConfig

__all__ = ["LinkState", "ThymesisFlowLink"]

#: Histogram edges spanning the two latency regimes (R2): the ~350-cycle
#: unloaded level, the logistic ramp, and the ~900-cycle plateau.
_LATENCY_BUCKETS = (360.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0)


@dataclass(frozen=True)
class LinkState:
    """Resolved channel state for one simulation tick."""

    offered_gbps: float
    delivered_gbps: float
    utilization: float          # offered / capacity (can exceed 1)
    latency_cycles: float
    backpressure: float         # >= 1; offered / delivered stretch factor
    base_latency_cycles: float = 350.0

    @property
    def saturated(self) -> bool:
        return self.utilization >= 1.0

    @property
    def latency_ratio(self) -> float:
        """Fractional latency increase over the unloaded channel (>= 0)."""
        return max(0.0, self.latency_cycles / self.base_latency_cycles - 1.0)


class ThymesisFlowLink:
    """Analytic model of the FPGA-to-FPGA OpenCAPI channel."""

    def __init__(self, config: LinkConfig | None = None) -> None:
        self.config = config if config is not None else LinkConfig()

    def resolve(
        self,
        offered_gbps: float,
        capacity_factor: float = 1.0,
        latency_factor: float = 1.0,
    ) -> LinkState:
        """Compute delivered throughput, latency and back-pressure.

        Parameters
        ----------
        offered_gbps:
            Aggregate remote-memory bandwidth demanded by all
            applications currently in remote mode.
        capacity_factor:
            Health of the channel in [0, 1]: 1 is the nominal capacity,
            fractions model partial degradation and 0 a full outage —
            the channel then delivers only the FPGA drain trickle
            (``LinkConfig.outage_drain_fraction``), so back-pressure
            stays finite while everything remote crawls.
        latency_factor:
            Multiplier (>= 1) on the resolved channel latency, modelling
            retransmission-induced latency spikes.
        """
        if offered_gbps < 0:
            raise ValueError("offered bandwidth cannot be negative")
        if not 0.0 <= capacity_factor <= 1.0:
            raise ValueError("capacity_factor must be in [0, 1]")
        if latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1")
        cfg = self.config
        healthy = capacity_factor == 1.0
        effective_fraction = (
            1.0 if healthy else max(capacity_factor, cfg.outage_drain_fraction)
        )
        capacity = cfg.capacity_gbps * effective_fraction
        delivered = min(offered_gbps, capacity)
        utilization = offered_gbps / capacity
        latency = self.latency_at(utilization) * latency_factor
        backpressure = 1.0 if delivered == 0 else max(1.0, offered_gbps / delivered)
        state = LinkState(
            offered_gbps=offered_gbps,
            delivered_gbps=delivered,
            utilization=utilization,
            latency_cycles=latency,
            backpressure=backpressure,
            base_latency_cycles=cfg.base_latency_cycles,
        )
        if obs.enabled():
            self.export(state, capacity_factor, latency_factor)
        return state

    @staticmethod
    def export(
        state: LinkState, capacity_factor: float, latency_factor: float
    ) -> None:
        """Export one resolution of ``state`` under the given factors.

        :meth:`resolve` calls this with obs on; a caller that reuses a
        state it resolved earlier calls it on each read, so the metrics
        count reads whether or not they resolved afresh.
        """
        metrics = obs.metrics()
        regime = (
            "outage" if capacity_factor == 0.0
            else "degraded" if capacity_factor != 1.0 or latency_factor > 1.0
            else "idle" if state.offered_gbps == 0
            else "saturated" if state.utilization >= 1.0
            else "linear"
        )
        metrics.counter(
            "link_resolves_total",
            "Channel-state resolutions by saturation regime",
            labels=("regime",),
        ).labels(regime=regime).inc()
        metrics.histogram(
            "link_latency_cycles",
            "Resolved channel latency per tick (cycles)",
            buckets=_LATENCY_BUCKETS,
        ).observe(state.latency_cycles)

    def latency_at(self, utilization: float) -> float:
        """Two-regime latency: logistic ramp from base to saturated.

        Below the knee the channel keeps up and latency is flat (R2);
        past it the back-pressure FIFO delays transactions and latency
        steps up to the plateau.
        """
        cfg = self.config
        span = cfg.saturated_latency_cycles - cfg.base_latency_cycles
        x = cfg.saturation_sharpness * (utilization - cfg.saturation_knee)
        # Stable logistic.  It stays on np.exp although math.exp is
        # cheaper on a scalar: the two differ in the last bit for 4.7 %
        # of utilizations drawn uniformly from [0, 3] (3 M draws, NumPy
        # 2.4 on x86-64), and every latency feeds the counter rows, so
        # seeded traces and perfbench's pinned digests would move.
        if x >= 0:
            ramp = 1.0 / (1.0 + np.exp(-x))
        else:
            ex = np.exp(x)
            ramp = ex / (1.0 + ex)
        return float(cfg.base_latency_cycles + span * ramp)

    def flits(self, delivered_gbps: float, dt_s: float = 1.0) -> int:
        """Number of 32-byte flits moved in ``dt_s`` seconds (one way)."""
        if delivered_gbps < 0 or dt_s < 0:
            raise ValueError("arguments must be non-negative")
        bytes_moved = delivered_gbps * 1e9 / 8.0 * dt_s
        return int(bytes_moved / self.config.flit_bytes)
