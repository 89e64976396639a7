"""Discrete-time cluster engine.

Advances the testbed in fixed ticks (1 s by default, matching the
Watcher's sampling period).  Each tick:

1. read the demand aggregate of the in-flight deployments — kept
   beside the list, extended by each placement and rebuilt from the
   list whenever a deployment leaves it,
2. resolve shared-resource contention on the testbed,
3. advance every deployment under the resolved pressure,
4. sample the perf counters into the trace.

Contention is resolved from the demands at the *start* of the tick —
the standard explicit-update scheme for analytic interference models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.cluster.deployment import Deployment
from repro.cluster.trace import Trace
from repro.hardware.counters import METRIC_NAMES, PerfCounters
from repro.hardware.testbed import ResourceDemand, SystemPressure, Testbed
from repro.obs.perf.accounting import accounting as perf_accounting
from repro.workloads.base import MemoryMode, WorkloadProfile

__all__ = [
    "ClusterEngine",
    "CapacityError",
    "RemoteUnavailableError",
    "NodeDownError",
    "RetryEntry",
]


class CapacityError(RuntimeError):
    """A deployment does not fit in the requested memory pool."""


class RemoteUnavailableError(CapacityError):
    """The remote pool is unreachable (link outage); retry or re-route."""


class NodeDownError(CapacityError):
    """The node is crashed (fail-stop); place elsewhere or park."""


#: Retry-queue backoff parameters: first retry after one tick, doubling
#: up to the cap, dropped after the attempt limit.
_RETRY_BACKOFF_CAP_S = 64.0
_RETRY_MAX_ATTEMPTS = 8
#: Seeded jitter spread on the doubled backoff: each failed attempt
#: waits ``backoff * (1 + U[0, _RETRY_JITTER_FRAC))`` so deployments
#: parked by the same outage decorrelate instead of thundering back on
#: one tick.  Worst case keeps the 8-attempt drop under ~287 simulated
#: seconds (the un-jittered base is ~191 s).
_RETRY_JITTER_FRAC = 0.5


@dataclass
class RetryEntry:
    """A remote deployment parked in the outage retry queue."""

    profile: WorkloadProfile
    duration_s: float | None
    #: Original decision time; it keys the audit-log join and the
    #: journey journal across the park.
    decided_s: float
    next_attempt_s: float
    backoff_s: float
    attempts: int = 0


class ClusterEngine:
    """Single-node disaggregated cluster simulator."""

    def __init__(
        self,
        testbed: Testbed | None = None,
        dt: float = 1.0,
    ) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.testbed = testbed if testbed is not None else Testbed()
        self.dt = dt
        self.now = 0.0
        #: In-flight deployments, in placement order.  A deployment leaves
        #: in the tick it finishes, once its record is in the trace.
        #: Only :meth:`deploy`, :meth:`set_inflight` and :meth:`withdraw`
        #: write it, so the aggregate below always matches it.
        self.deployments: list[Deployment] = []
        #: Aggregate of the in-flight list: the left fold of its demands
        #: in placement order (bit for bit what ``ResourceDemand.total``
        #: of the list returns) and how many of them run remote.
        self.inflight_demand = ResourceDemand()
        self.inflight_remote = 0
        self.trace = Trace(dt=dt)
        self._next_app_id = 0
        #: Hook invoked with each finished deployment's record.
        self.on_finish: Callable | None = None
        self._tick_hooks: list[Callable[["ClusterEngine"], None]] = []
        #: While True (a fault injector flags a link outage) new remote
        #: placements raise :class:`RemoteUnavailableError` instead of
        #: being placed onto an unreachable pool.
        self.remote_blocked = False
        #: Per-tick ThymesisFlow capacity scale in (0, 1], written by the
        #: fleet's rack-pool arbiter; 1.0 (the default) is bit-inert.
        self.pool_capacity_factor = 1.0
        #: Optional rack-pool admission check consulted by :meth:`fits`
        #: for remote placements — the fleet wires this to the shared
        #: :class:`repro.hardware.pool.RemotePool` capacity accounting.
        self.remote_fits_hook: Callable[[WorkloadProfile], bool] | None = None
        #: Fleet node label (``"n3"``), set by :class:`ClusterFleet`;
        #: ``None`` outside a fleet.  Metric exports stamp their ``node``
        #: label with this, defaulting to ``"n0"`` when unset, so every
        #: engine-level family has one uniform label shape whether the
        #: engine runs alone or as one lane of a rack.
        self.node_label: str | None = None
        #: Journey recorder (:class:`repro.obs.fleet.NodeJourney`) wired
        #: by an obs-enabled fleet; ``None`` keeps every lifecycle-hop
        #: site a single ``is not None`` test.
        self.journey = None
        #: Deployments waiting out a remote outage, retried with
        #: exponential backoff at the start of each tick.
        self._retry_queue: list[RetryEntry] = []
        #: Seeded jitter source for retry backoff (checkpointed so a
        #: resumed run replays the same retry schedule bit-for-bit).
        self._retry_rng = np.random.default_rng(
            [int(self.testbed.config.seed), 0x5E77]
        )
        #: Parked deployments dropped after the retry limit — the
        #: conservation ledger's ``dropped`` term (see ClusterFleet
        #: ``accounting``).
        self.dropped_retries = 0
        #: Fail-stop flag driven by the fleet health manager: a dead
        #: node accepts no placements and its ticks only advance the
        #: clock, recording all-NaN telemetry gaps (it stopped
        #: reporting).  False (the default) is bit-inert.
        self.dead = False
        # Stream this engine when a live observability session is active
        # (obs.live_session() is None on the disabled path — one read, no hooks).
        live = obs.live_session()
        if live is not None:
            live.attach(self)

    # -- tick hooks ---------------------------------------------------------
    def add_tick_hook(self, hook: Callable[["ClusterEngine"], None]) -> None:
        """Register ``hook(engine)`` to run at the end of every tick.

        Registration is idempotent (the same hook is never invoked twice
        per tick), so callers on per-arrival paths — e.g. a Predictor
        keeping its per-tick Ŝ memo fresh — can attach unconditionally.
        """
        if hook not in self._tick_hooks:
            self._tick_hooks.append(hook)

    def remove_tick_hook(self, hook: Callable[["ClusterEngine"], None]) -> None:
        """Unregister a tick hook; safe to call when not registered."""
        if hook in self._tick_hooks:
            self._tick_hooks.remove(hook)

    # -- deployment -------------------------------------------------------
    @property
    def running(self) -> list[Deployment]:
        """The in-flight deployments (the engine's own list, not a copy)."""
        return self.deployments

    def used_capacity_gb(self, mode: MemoryMode) -> float:
        """Memory currently committed in the given pool."""
        total = self.inflight_demand
        return total.local_gb if mode is MemoryMode.LOCAL else total.remote_gb

    def set_inflight(self, deployments: list[Deployment]) -> None:
        """Replace the in-flight list and rebuild its aggregate from it.

        Every write of the list but :meth:`deploy`'s append comes here:
        a finish, a failover drain or eviction, a checkpoint load.
        """
        self.deployments = deployments
        self.inflight_demand = ResourceDemand.total([d.demand() for d in deployments])
        self.inflight_remote = sum(d.mode is MemoryMode.REMOTE for d in deployments)

    def withdraw(self, deployment: Deployment) -> None:
        """Take one deployment out of flight (it finished or was evicted)."""
        self.deployments.remove(deployment)
        self.set_inflight(self.deployments)

    def fits(self, profile: WorkloadProfile, mode: MemoryMode) -> bool:
        if self.dead:
            return False
        node = self.testbed.config.node
        capacity = node.dram_gb if mode is MemoryMode.LOCAL else node.remote_gb
        if self.used_capacity_gb(mode) + profile.footprint_gb > capacity:
            return False
        if mode is MemoryMode.REMOTE and self.remote_fits_hook is not None:
            return bool(self.remote_fits_hook(profile))
        return True

    def deploy(
        self,
        profile: WorkloadProfile,
        mode: MemoryMode,
        duration_s: float | None = None,
        decided_s: float | None = None,
    ) -> Deployment:
        """Place a workload; raises :class:`CapacityError` if it cannot fit.

        While the remote pool is blocked by a link outage, remote
        placements raise :class:`RemoteUnavailableError` (a
        :class:`CapacityError`) — callers either fall back to local or
        park the workload via :meth:`queue_remote`.
        """
        if self.dead:
            raise NodeDownError(
                f"{profile.name}: node {self.node_label or 'n0'} is down"
            )
        if mode is MemoryMode.REMOTE and self.remote_blocked:
            raise RemoteUnavailableError(
                f"{profile.name}: remote pool unavailable (link outage)"
            )
        if not self.fits(profile, mode):
            raise CapacityError(
                f"{profile.name} ({profile.footprint_gb} GB) does not fit in "
                f"{mode.value} memory"
            )
        deployment = Deployment(
            app_id=self._next_app_id,
            profile=profile,
            mode=mode,
            arrival_time=self.now,
            duration_s=duration_s,
            decided_s=decided_s,
        )
        self._next_app_id += 1
        self.deployments.append(deployment)
        self.inflight_demand = self.inflight_demand + deployment.demand()
        if mode is MemoryMode.REMOTE:
            self.inflight_remote += 1
        if self.journey is not None:
            self.journey.hop(
                profile.name,
                decided_s if decided_s is not None else self.now,
                "admission",
                self.now,
                mode=mode.value,
            )
        return deployment

    # -- outage retry queue --------------------------------------------------
    def queue_remote(
        self,
        profile: WorkloadProfile,
        duration_s: float | None = None,
        decided_s: float | None = None,
    ) -> None:
        """Park a remote deployment until the link outage clears.

        The entry is retried at the start of each tick once its backoff
        expires; backoff doubles per failed attempt (capped) and the
        entry is dropped after the attempt limit.  ``decided_s``
        preserves the original decision time across the park (it keys
        the audit-log join and the journey journal); it defaults to the
        park time.
        """
        decided = decided_s if decided_s is not None else self.now
        self._retry_queue.append(
            RetryEntry(
                profile=profile,
                duration_s=duration_s,
                decided_s=decided,
                next_attempt_s=self.now + self.dt,
                backoff_s=self.dt,
            )
        )
        if obs.enabled():
            obs.metrics().counter(
                "engine_remote_queued_total",
                "Remote deployments parked during link outages",
                labels=("node",),
            ).labels(node=self.node_label or "n0").inc()
        if self.journey is not None:
            self.journey.hop(profile.name, decided, "parked", self.now)

    @property
    def queued_remote(self) -> int:
        """Deployments currently parked in the outage retry queue."""
        return len(self._retry_queue)

    def _drain_retry_queue(self) -> None:
        keep: list[RetryEntry] = []
        for entry in self._retry_queue:
            if entry.next_attempt_s > self.now + 1e-9:
                keep.append(entry)
                continue
            try:
                self.deploy(
                    entry.profile, MemoryMode.REMOTE,
                    duration_s=entry.duration_s,
                    decided_s=entry.decided_s,
                )
            except CapacityError:
                entry.attempts += 1
                if entry.attempts >= _RETRY_MAX_ATTEMPTS:
                    self.dropped_retries += 1
                    if obs.enabled():
                        obs.metrics().counter(
                            "engine_remote_retries_dropped_total",
                            "Parked deployments dropped after the retry limit",
                            labels=("node",),
                        ).labels(node=self.node_label or "n0").inc()
                    if self.journey is not None:
                        self.journey.hop(
                            entry.profile.name, entry.decided_s, "dropped",
                            self.now, attempts=entry.attempts,
                        )
                    continue
                entry.backoff_s = min(entry.backoff_s * 2.0, _RETRY_BACKOFF_CAP_S)
                jitter = 1.0 + _RETRY_JITTER_FRAC * float(self._retry_rng.random())
                entry.next_attempt_s = self.now + entry.backoff_s * jitter
                if self.journey is not None:
                    self.journey.hop(
                        entry.profile.name, entry.decided_s, "retry", self.now,
                        attempt=entry.attempts,
                        backoff_s=entry.backoff_s,
                    )
                keep.append(entry)
            else:
                if obs.enabled():
                    obs.metrics().counter(
                        "engine_remote_retries_succeeded_total",
                        "Parked deployments placed after an outage cleared",
                        labels=("node",),
                    ).labels(node=self.node_label or "n0").inc()
        self._retry_queue = keep

    # -- simulation ---------------------------------------------------------
    def current_pressure(self) -> SystemPressure:
        """Pressure the testbed is under right now."""
        return self.testbed.resolve(
            [self.inflight_demand],
            link_capacity_factor=self.pool_capacity_factor,
        )

    def pressure_with(
        self, profile: WorkloadProfile, mode: MemoryMode
    ) -> SystemPressure:
        """Hypothetical pressure if ``profile`` were added in ``mode``.

        Used by the Orchestrator and by the isolated-performance
        estimators of the characterization drivers.
        """
        return self.testbed.resolve(
            [self.inflight_demand, profile.demand(mode)],
            link_capacity_factor=self.pool_capacity_factor,
        )

    def tick(self) -> SystemPressure:
        """Advance the simulation by one step.

        When phase accounting is enabled (:func:`repro.obs.enable` or
        :func:`repro.obs.perf.enable_phases`) the tick's cost is
        attributed to named sub-phases as *contiguous laps* — each lap
        starts where the previous ended, so the ``engine.*`` leaf totals
        sum exactly to the recorded ``engine.tick`` total, which is also
        what ``engine_tick_seconds`` observes.  Disabled (the default),
        the whole mechanism is one accessor call and a few
        ``is not None`` tests: no clock reads, no allocations, and
        bit-identical simulation output.
        """
        if self.dead:
            return self._tick_dead()
        acct = perf_accounting()
        t0 = tick_start = acct.clock() if acct is not None else 0.0
        if self._retry_queue:
            # Retried placements contribute demand from this tick on.
            self._drain_retry_queue()
        if acct is not None:
            t0 = acct.lap("engine.retry_queue", t0)
        pressure = self.current_pressure()
        if acct is not None:
            t0 = acct.lap("engine.arbitration", t0)
        self.now += self.dt
        finished = 0
        # Walk a snapshot: an on_finish hook may place new work here.
        for deployment in tuple(self.running):
            deployment.advance(self.now, self.dt, pressure)
            if not deployment.running:
                finished += 1
                record = deployment.record()
                self.trace.add_record(record)
                self.withdraw(deployment)
                if self.journey is not None:
                    decided = record.decided_s
                    self.journey.hop(
                        record.name,
                        decided if decided is not None else record.arrival_time,
                        "finished",
                        self.now,
                        mode=record.mode.value,
                    )
                if self.on_finish is not None:
                    self.on_finish(record)
        if acct is not None:
            t0 = acct.lap("engine.advance", t0)
        self.trace.append(
            self.now, self.testbed.sample_counters(pressure), len(self.running)
        )
        if acct is not None:
            t0 = acct.lap("engine.telemetry", t0)
        for hook in tuple(self._tick_hooks):
            hook(self)
        if acct is not None:
            t0 = acct.lap("engine.tick_hooks", t0)
        if obs.enabled():
            # Every engine family carries the node label (default "n0")
            # so fleet and single-node runs share one family shape and
            # the fleet registry aggregates per-node series natively.
            metrics = obs.metrics()
            node = self.node_label or "n0"
            metrics.counter(
                "engine_ticks_total", "Simulation ticks executed",
                labels=("node",),
            ).labels(node=node).inc()
            if finished:
                metrics.counter(
                    "engine_deployments_finished_total",
                    "Deployments that completed",
                    labels=("node",),
                ).labels(node=node).inc(finished)
            metrics.gauge(
                "engine_running_apps", "Deployments running after the tick",
                labels=("node",),
            ).labels(node=node).set(len(self.running))
            metrics.gauge(
                "engine_link_utilization",
                "ThymesisFlow offered/capacity ratio at the tick",
                labels=("node",),
            ).labels(node=node).set(pressure.link.utilization)
            metrics.gauge(
                "engine_sim_time_seconds", "Current simulation clock",
                labels=("node",),
            ).labels(node=node).set(self.now)
        if acct is not None:
            t0 = acct.lap("engine.obs_export", t0)
            total = t0 - tick_start
            acct.add("engine.tick", total)
            if self.node_label is not None:
                # Per-node envelope so a fleet profile attributes tick
                # cost to individual lanes, not one collapsed phase.
                acct.add(f"engine.tick[{self.node_label}]", total)
            if obs.enabled():
                # Observes the envelope, so it falls outside it.
                obs.metrics().histogram(
                    "engine_tick_seconds",
                    "Wall-clock duration of one engine tick",
                    labels=("node",),
                ).labels(node=self.node_label or "n0").observe(total)
        return pressure

    def _tick_dead(self) -> SystemPressure:
        """One tick of a fail-stopped node.

        Only the clock advances (the fleet's lockstep drift guard
        requires it).  Telemetry records an all-NaN gap *without*
        consuming the counter RNG — a crashed Watcher reports nothing —
        and no deployments advance: in-flight work is frozen until the
        health manager drains it into the failover queue.
        """
        self.now += self.dt
        self.trace.append(
            self.now,
            PerfCounters.from_array(np.full(len(METRIC_NAMES), np.nan)),
            0,
        )
        for hook in tuple(self._tick_hooks):
            hook(self)
        if obs.enabled():
            metrics = obs.metrics()
            node = self.node_label or "n0"
            metrics.counter(
                "engine_ticks_total", "Simulation ticks executed",
                labels=("node",),
            ).labels(node=node).inc()
            metrics.gauge(
                "engine_running_apps", "Deployments running after the tick",
                labels=("node",),
            ).labels(node=node).set(0.0)
            metrics.gauge(
                "engine_link_utilization",
                "ThymesisFlow offered/capacity ratio at the tick",
                labels=("node",),
            ).labels(node=node).set(0.0)
            metrics.gauge(
                "engine_sim_time_seconds", "Current simulation clock",
                labels=("node",),
            ).labels(node=node).set(self.now)
        return self.testbed.resolve(
            [], link_capacity_factor=self.pool_capacity_factor
        )

    def run_for(self, seconds: float) -> None:
        """Run the clock forward by ``seconds``."""
        if seconds < 0:
            raise ValueError("cannot run backwards")
        end = self.now + seconds
        while self.now < end - 1e-9:
            self.tick()

    def drain(self, max_seconds: float = 86400.0) -> bool:
        """Advance until every deployment and retry-queue entry has
        drained or ``max_seconds`` pass; returns whether the engine is
        idle.  A missed deadline is not an error here — the serving
        daemon checkpoints whatever is still in flight.
        """
        waited = 0.0
        while (self.running or self._retry_queue) and waited < max_seconds - 1e-9:
            self.tick()
            waited += self.dt
        return not (self.running or self._retry_queue)

    def run_until_idle(self, max_seconds: float = 86400.0) -> None:
        """:meth:`drain`, raising if anything is still busy at the deadline."""
        if not self.drain(max_seconds):
            raise RuntimeError(
                f"{len(self.running)} deployments still running and "
                f"{len(self._retry_queue)} queued after {max_seconds} s drain"
            )

    # -- measurement helpers -------------------------------------------------
    def measure_isolated(
        self, profile: WorkloadProfile, mode: MemoryMode
    ) -> float:
        """Run ``profile`` alone on a fresh engine; return its performance.

        Best-effort profiles return runtime in seconds, latency-critical
        ones their p99 in ms (the paper's two performance metrics).
        """
        engine = ClusterEngine(testbed=Testbed(self.testbed.config), dt=self.dt)
        engine.deploy(profile, mode)
        engine.run_until_idle()
        return engine.trace.records[-1].performance
