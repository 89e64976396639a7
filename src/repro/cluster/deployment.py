"""Deployment lifecycle: one workload instance placed on the testbed."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.testbed import ResourceDemand, SystemPressure
from repro.workloads.base import MemoryMode, WorkloadKind, WorkloadProfile
from repro.workloads.loadgen import TailLatencyModel
from repro.workloads.redis import LCProfile

__all__ = ["Deployment", "DeploymentRecord"]


@dataclass
class Deployment:
    """A running workload instance.

    Best-effort deployments accumulate *nominal-equivalent progress*:
    each tick contributes ``dt / slowdown`` seconds of work and the
    deployment finishes when the profile's nominal runtime has been
    earned.  Latency-critical deployments serve operations: they finish
    when the total request budget has been served, and they record the
    per-tick tail-latency samples of the load-generator model.
    Interference (iBench) deployments run for a fixed wall-clock
    duration at constant intensity.
    """

    app_id: int
    profile: WorkloadProfile
    mode: MemoryMode
    arrival_time: float
    #: Wall-clock duration override for interference workloads.
    duration_s: float | None = None
    #: Time of the placement decision when it precedes the deployment —
    #: outage-parked workloads retry later, but audit joins key on this.
    decided_s: float | None = None
    finish_time: float | None = None
    progress_s: float = 0.0
    served_ops: float = 0.0
    #: Mean slowdown observed over the run (progress-weighted for BE).
    _slowdown_sum: float = 0.0
    _slowdown_ticks: int = 0
    p99_samples: list[float] = field(default_factory=list)
    p999_samples: list[float] = field(default_factory=list)
    #: Remote link bytes attributable to this deployment (Gb).
    link_traffic_gb: float = 0.0

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError("arrival_time cannot be negative")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("duration_s must be positive when given")
        if isinstance(self.profile, LCProfile):
            self._latency_model = TailLatencyModel(self.profile)
            self._request_budget = self.profile.ops_per_sec * self.profile.nominal_runtime_s
        else:
            self._latency_model = None
            self._request_budget = None
        # The pressure the last advance ran under, with the slowdown and
        # (latency-critical apps only) the tail sample it gave.  Plain
        # attributes, not fields: a checkpoint does not carry them.
        self._kept_pressure: SystemPressure | None = None
        self._kept_slowdown = 1.0
        self._kept_sample = None

    # -- queries --------------------------------------------------------
    @property
    def running(self) -> bool:
        return self.finish_time is None

    @property
    def is_latency_critical(self) -> bool:
        return self.profile.kind is WorkloadKind.LATENCY_CRITICAL

    @property
    def is_interference(self) -> bool:
        return self.profile.kind is WorkloadKind.INTERFERENCE

    def demand(self) -> ResourceDemand:
        return self.profile.demand(self.mode)

    @property
    def mean_slowdown(self) -> float:
        if self._slowdown_ticks == 0:
            return 1.0
        return self._slowdown_sum / self._slowdown_ticks

    # -- simulation -----------------------------------------------------
    def advance(self, now: float, dt: float, pressure: SystemPressure) -> None:
        """Advance the deployment by one tick ending at time ``now``.

        The interference model runs once per pressure: while the engine
        hands in the same pressure object, the slowdown and the tail
        sample of a latency-critical app are those of the last advance.
        The engine calls this for every app on every tick, so it reads
        ``finish_time`` and ``profile.kind`` rather than the
        :attr:`running` and kind properties.
        """
        if self.finish_time is not None:
            raise RuntimeError(f"deployment {self.app_id} already finished")
        if dt <= 0:
            raise ValueError("dt must be positive")
        profile = self.profile
        kind = profile.kind
        if pressure is not self._kept_pressure:
            self._kept_pressure = pressure
            self._kept_slowdown = profile.slowdown(pressure, self.mode)
            if kind is WorkloadKind.LATENCY_CRITICAL:
                self._kept_sample = self._latency_model.sample_at(
                    self._kept_slowdown
                )
        slowdown = self._kept_slowdown
        self._slowdown_sum += slowdown
        self._slowdown_ticks += 1
        if self.mode is MemoryMode.REMOTE:
            # Fair share of the delivered link throughput.
            offered = pressure.total_demand.remote_bw_gbps
            if offered > 0:
                share = profile.remote_bw_gbps / offered
                # Gbps x s / 8 bits-per-byte = gigabytes moved this tick.
                self.link_traffic_gb += share * pressure.link.delivered_gbps * dt / 8.0

        if kind is WorkloadKind.INTERFERENCE:
            duration = self.duration_s or profile.nominal_runtime_s
            if now - self.arrival_time >= duration:
                self._finish(now)
            return

        if kind is WorkloadKind.LATENCY_CRITICAL:
            sample = self._kept_sample
            self.p99_samples.append(sample.p99_ms)
            self.p999_samples.append(sample.p999_ms)
            self.served_ops += sample.served_ops * dt
            if self.served_ops >= self._request_budget:
                self._finish(now)
            return

        # Best-effort: earn nominal-equivalent progress.
        self.progress_s += dt / slowdown
        if self.progress_s >= profile.nominal_runtime_s:
            self._finish(now)

    def complete_early(self) -> None:
        """Pull the workload class's natural finish lever, so the next
        :meth:`advance` finishes the deployment."""
        if self.is_interference:
            self.duration_s = 1e-9
        elif self._request_budget is not None:
            self.served_ops = self._request_budget
        else:
            self.progress_s = self.profile.nominal_runtime_s

    def _finish(self, now: float) -> None:
        self.finish_time = now

    # -- results ----------------------------------------------------------
    def record(self) -> "DeploymentRecord":
        """Summarize a finished deployment for trace storage."""
        if self.running:
            raise RuntimeError("cannot record an unfinished deployment")
        runtime = self.finish_time - self.arrival_time
        if self.is_latency_critical and self.p99_samples:
            # The run-wide p99 is approximated by a high quantile of the
            # per-tick tail samples: the overall latency distribution is
            # a mixture over ticks and its p99 sits in the upper region
            # of the per-tick p99s.
            p99 = float(np.percentile(self.p99_samples, 90))
            p999 = float(np.percentile(self.p999_samples, 90))
        else:
            p99 = float("nan")
            p999 = float("nan")
        return DeploymentRecord(
            app_id=self.app_id,
            name=self.profile.name,
            kind=self.profile.kind,
            mode=self.mode,
            arrival_time=self.arrival_time,
            finish_time=self.finish_time,
            runtime_s=runtime,
            p99_ms=p99,
            p999_ms=p999,
            mean_slowdown=self.mean_slowdown,
            link_traffic_gb=self.link_traffic_gb,
            decided_s=self.decided_s,
        )


@dataclass(frozen=True)
class DeploymentRecord:
    """Immutable summary of one completed deployment."""

    app_id: int
    name: str
    kind: WorkloadKind
    mode: MemoryMode
    arrival_time: float
    finish_time: float
    runtime_s: float
    p99_ms: float
    p999_ms: float
    mean_slowdown: float
    link_traffic_gb: float
    decided_s: float | None = None

    @property
    def performance(self) -> float:
        """The paper's performance metric: runtime for BE, p99 for LC."""
        if self.kind is WorkloadKind.LATENCY_CRITICAL:
            return self.p99_ms
        return self.runtime_s
