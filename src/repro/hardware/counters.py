"""Performance-event definitions and counter synthesis.

The Watcher of §V-A monitors seven events; this module defines their
canonical names/ordering (used by models, datasets and the Table I
bench) and synthesizes per-second counter values from the resolved
hardware state.  A sample travels as a *counter row*: a float64 array
of shape ``(len(METRIC_NAMES),)`` in ``METRIC_NAMES`` order, which the
trace keeps as it is.  :class:`PerfCounters` is the named view of a
row, for callers that read events by name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["METRIC_NAMES", "PerfCounters", "CounterSynthesizer", "as_counter_row"]

#: Canonical metric ordering (matches Table I of the paper).
METRIC_NAMES: tuple[str, ...] = (
    "llc_loads",
    "llc_misses",
    "mem_loads",
    "mem_stores",
    "rmt_tx_flits",
    "rmt_rx_flits",
    "link_latency",
)


def as_counter_row(values) -> np.ndarray:
    """``values`` as a counter row; raises ``ValueError`` for any other shape.

    A float64 array of the right shape is returned as it is, not copied.
    """
    row = np.asarray(values, dtype=np.float64)
    if row.shape != (len(METRIC_NAMES),):
        raise ValueError(
            f"expected {len(METRIC_NAMES)} metric values, got {row.shape}"
        )
    return row


@dataclass(frozen=True)
class PerfCounters:
    """Named view of one counter row (per-second rates).

    Field order matches :data:`METRIC_NAMES`.
    """

    llc_loads: float
    llc_misses: float
    mem_loads: float
    mem_stores: float
    rmt_tx_flits: float
    rmt_rx_flits: float
    link_latency: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)])

    @classmethod
    def from_array(cls, values: np.ndarray) -> "PerfCounters":
        return cls(*(float(v) for v in as_counter_row(values)))

    @classmethod
    def zeros(cls) -> "PerfCounters":
        return cls(*([0.0] * len(METRIC_NAMES)))


class CounterSynthesizer:
    """Derive perf-counter samples from resolved hardware state.

    The causal chain mirrors the real machine:

    * LLC loads track the aggregate cache-access rate of the tenants;
      misses are loads times a miss rate inflated by LLC contention (R6).
    * Local memory loads/stores track local DRAM traffic *plus* the
      remote traffic, because ThymesisFlow remote pages are
      memory-mapped and all remote traffic is handled on-chip by the
      local node's memory controllers (R3).
    * RMT tx/rx flits count 32 B flits over the delivered link
      throughput; tx and rx are nearly symmetric (reads dominate but
      every read has a response).
    * Link latency comes straight from the back-pressure model (R2).
    """

    #: Cache-line size of the POWER9 LLC in bytes.
    line_bytes: float = 128.0
    #: Baseline LLC miss rate of a healthy mix.
    base_miss_rate: float = 0.08
    #: How much of a unit of miss inflation shows up in the measured rate.
    miss_rate_gain: float = 0.30
    #: Fraction of memory traffic that is loads (rest is stores).
    load_fraction: float = 0.68
    #: Fraction of remote traffic that additionally occupies local
    #: memory controllers (R3).
    remote_reflection: float = 0.9

    def __init__(self, flit_bytes: int = 32, noise: float = 0.0, seed: int = 0) -> None:
        if flit_bytes <= 0:
            raise ValueError("flit size must be positive")
        if not 0 <= noise < 1:
            raise ValueError("noise must be in [0, 1)")
        self.flit_bytes = flit_bytes
        self.noise = noise
        self._rng = np.random.default_rng(seed)

    def synthesize(
        self,
        llc_access_gbps: float,
        miss_inflation: float,
        local_bw_gbps: float,
        remote_delivered_gbps: float,
        link_latency_cycles: float,
    ) -> np.ndarray:
        """Produce one per-second counter sample as a counter row."""
        return self.perturb(self.mean_row(
            llc_access_gbps, miss_inflation, local_bw_gbps,
            remote_delivered_gbps, link_latency_cycles,
        ))

    def mean_row(
        self,
        llc_access_gbps: float,
        miss_inflation: float,
        local_bw_gbps: float,
        remote_delivered_gbps: float,
        link_latency_cycles: float,
    ) -> np.ndarray:
        """The noise-free counter row of one operating point."""
        if min(llc_access_gbps, local_bw_gbps, remote_delivered_gbps) < 0:
            raise ValueError("traffic inputs cannot be negative")
        llc_loads = llc_access_gbps * 1e9 / 8.0 / self.line_bytes
        miss_rate = min(0.95, self.base_miss_rate + self.miss_rate_gain * miss_inflation)
        llc_misses = llc_loads * miss_rate

        mem_traffic_gbps = local_bw_gbps + self.remote_reflection * remote_delivered_gbps
        mem_accesses = mem_traffic_gbps * 1e9 / 8.0 / self.line_bytes
        mem_loads = mem_accesses * self.load_fraction
        mem_stores = mem_accesses * (1.0 - self.load_fraction)

        remote_bytes = remote_delivered_gbps * 1e9 / 8.0
        flits = remote_bytes / self.flit_bytes
        # Read-dominated traffic: tx carries requests + write payloads,
        # rx carries read responses; both scale with delivered bytes.
        rmt_tx = flits * 0.52
        rmt_rx = flits * 0.48

        return np.array(
            [llc_loads, llc_misses, mem_loads, mem_stores, rmt_tx, rmt_rx,
             link_latency_cycles],
            dtype=np.float64,
        )

    def perturb(self, mean: np.ndarray) -> np.ndarray:
        """One measured sample around a noise-free row, as a new row:
        ``mean`` is never returned itself, so a caller may keep it while
        the trace corrupts a sample in place."""
        if self.noise > 0:
            values = mean * self._rng.normal(1.0, self.noise, size=mean.shape)
            return np.maximum(values, 0.0)
        return mean.copy()
