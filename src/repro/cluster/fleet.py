"""Rack-scale fleet: the paper's §VII scalability sketch, implemented.

The ThymesisFlow prototype limits the paper's evaluation to a single
borrower node, but §VII argues that Adrias scales out: Watchers and
Predictors run per node while the orchestration logic is centralized
and "adjusted in a straightforward manner to account for cluster-level
efficiency in case of iso-QoS predictions between different nodes".

:class:`ClusterFleet` realizes that design as a *rack*: N borrower
nodes, each simulated by its own :class:`ClusterEngine`, advanced under
one fleet clock and — when a :class:`~repro.hardware.pool.RemotePoolConfig`
is given — drawing remote memory from a shared rack pool.  The pool
composes two contention levels every tick: per-node ThymesisFlow link
saturation (unchanged from the single-node model) and pool-level
capacity plus aggregate-bandwidth arbitration, resolved once per fleet
tick before the nodes advance (``fleet.arbitration`` in the phase
accounting).

Placement is two-level: a fleet scheduler picks the *node* (global
step: :class:`LeastLoadedPlacement` is the iso-QoS tie-break the paper
suggests, :class:`PoolAwarePlacement` additionally avoids lanes the
pool arbiter throttled), then the wrapped single-node policy (e.g.
:class:`repro.orchestrator.AdriasPolicy`) picks the memory mode against
that node's state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro import obs
from repro.cluster.deployment import Deployment, DeploymentRecord
from repro.cluster.engine import CapacityError, ClusterEngine
from repro.hardware.config import TestbedConfig
from repro.hardware.pool import RemotePool, RemotePoolConfig
from repro.hardware.testbed import Testbed
from repro.obs.perf.accounting import accounting as perf_accounting
from repro.workloads.base import MemoryMode, WorkloadKind, WorkloadProfile

__all__ = [
    "ClusterFleet",
    "LeastLoadedPlacement",
    "PoolAwarePlacement",
    "FleetDecision",
]


@dataclass(frozen=True)
class FleetDecision:
    """A fleet-level placement: which node, which memory pool."""

    node_index: int
    mode: MemoryMode


class ClusterFleet:
    """N disaggregated nodes under one fleet clock and shared rack pool."""

    def __init__(
        self,
        n_nodes: int = 2,
        testbed_config: TestbedConfig | None = None,
        dt: float = 1.0,
        pool: RemotePoolConfig | None = None,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        base = testbed_config if testbed_config is not None else TestbedConfig()
        self.pool: RemotePool | None = None
        if pool is not None:
            self.pool = RemotePool(
                pool,
                n_nodes=n_nodes,
                link_capacity_gbps=base.link.capacity_gbps,
                node_remote_gb=base.node.remote_gb,
            )
            # Per-node remote ceiling: the regime's hard draw limit.  The
            # shared (pooled) dimension is enforced by the fits hook.
            base_for_nodes = replace(
                base, node=replace(base.node, remote_gb=self.pool.node_capacity_gb)
            )
        else:
            base_for_nodes = base
        self.engines = [
            ClusterEngine(
                testbed=Testbed(replace(base_for_nodes, seed=base.seed + index)),
                dt=dt,
            )
            for index in range(n_nodes)
        ]
        if self.pool is not None:
            for index, engine in enumerate(self.engines):
                engine.remote_fits_hook = self._pool_check(index)
        # Node labels are unconditional (a plain attribute write, never
        # read on the disabled path); the journey journal only exists
        # while observability is on, so disabled runs stay bit-inert.
        for index, engine in enumerate(self.engines):
            engine.node_label = f"n{index}"
        self.journal = None
        if obs.enabled():
            from repro.obs.fleet.journey import NodeJourney, session_journal

            self.journal = session_journal()
            for engine in self.engines:
                engine.journey = NodeJourney(self.journal, engine.node_label)
        self.dt = dt
        #: Single fleet clock: every engine advances in lockstep with it.
        self._now = 0.0
        #: Fleet ticks on which the pool arbiter throttled at least one lane.
        self.pool_throttled_ticks = 0
        #: Last tick's throttled node set (edge detection for stream events).
        self._last_throttled: tuple[str, ...] = ()
        #: Optional :class:`repro.cluster.failover.FleetHealthManager`;
        #: when set, it heartbeats at the top of every tick (before pool
        #: arbitration, so drains/derates shape the same tick).
        self.health = None
        #: Hooks invoked with the fleet at the end of every tick.
        self.tick_hooks: list[Callable[["ClusterFleet"], None]] = []
        #: Deployments logically admitted to the fleet (deployed or
        #: parked) — the left-hand side of the conservation ledger.
        #: Admission sites call :meth:`note_submitted`; failover replays
        #: must not (a replay is the same logical deployment moving).
        self.submitted = 0

    @property
    def n_nodes(self) -> int:
        return len(self.engines)

    @property
    def now(self) -> float:
        return self._now

    @property
    def queued_remote(self) -> int:
        """Deployments parked fleet-wide in per-node outage retry queues."""
        return sum(engine.queued_remote for engine in self.engines)

    @property
    def pending_failover(self) -> int:
        """Deployments parked in the health manager's failover queue."""
        return self.health.pending if self.health is not None else 0

    def note_submitted(self, n: int = 1) -> None:
        """Count ``n`` logical admissions toward the conservation ledger."""
        self.submitted += n

    def accounting(self) -> dict:
        """Conservation ledger: where every admitted deployment is now.

        ``submitted == finished + running + parked + dropped`` must hold
        at every tick — across node crashes, failovers and pool device
        loss — whenever every admission site reported via
        :meth:`note_submitted` (the fleet replay driver and the serving
        daemon both do).  A frozen deployment on a crashed-but-not-yet-
        declared node still counts as running; once drained it counts
        as parked until replayed on a survivor.
        """
        finished = sum(len(engine.trace.records) for engine in self.engines)
        running = sum(len(engine.running) for engine in self.engines)
        parked = self.queued_remote + self.pending_failover
        dropped = sum(engine.dropped_retries for engine in self.engines)
        return {
            "submitted": self.submitted,
            "finished": finished,
            "running": running,
            "parked": parked,
            "dropped": dropped,
            "total": finished + running + parked + dropped,
        }

    # -- rack pool ---------------------------------------------------------
    def _remote_used_gb(self) -> list[float]:
        return [
            engine.used_capacity_gb(MemoryMode.REMOTE) for engine in self.engines
        ]

    def _pool_check(self, index: int) -> Callable[[WorkloadProfile], bool]:
        def check(profile: WorkloadProfile) -> bool:
            fits = self.pool.fits(
                self._remote_used_gb(), index, profile.footprint_gb
            )
            if not fits and obs.enabled():
                engine = self.engines[index]
                obs.metrics().counter(
                    "pool_throttle_events_total",
                    "Pool arbiter throttle events by node, cause and regime",
                    labels=("node", "cause", "regime"),
                ).labels(
                    node=engine.node_label or f"n{index}",
                    cause="capacity",
                    regime=self.pool.regime.value,
                ).inc()
            return fits

        return check

    def _arbitrate(self) -> None:
        """Resolve pool-level bandwidth arbitration for the coming tick."""
        if self.pool is None:
            return
        offered = [
            engine.inflight_demand.remote_bw_gbps for engine in self.engines
        ]
        factors = self.pool.arbitrate(offered)
        throttled_nodes: list[str] = []
        for index, (engine, factor) in enumerate(zip(self.engines, factors)):
            engine.pool_capacity_factor = factor
            if factor < 1.0 - 1e-12:
                throttled_nodes.append(engine.node_label or f"n{index}")
        if throttled_nodes:
            self.pool_throttled_ticks += 1
        if obs.enabled():
            self._export_pool_telemetry(offered, factors, throttled_nodes)

    def _export_pool_telemetry(
        self,
        offered: list[float],
        factors: list[float],
        throttled_nodes: list[str],
    ) -> None:
        """Per-tick pool metrics + throttle stream records (obs on only)."""
        metrics = obs.metrics()
        regime = self.pool.regime.value
        bw_util = self.pool.bandwidth_utilization(offered)
        used = self._remote_used_gb()
        metrics.gauge(
            "pool_bandwidth_utilization",
            "Aggregate offered remote bandwidth over the fabric budget",
        ).set(bw_util)
        metrics.gauge(
            "pool_capacity_utilization",
            "Remote memory drawn from the rack pool over its capacity",
        ).set(sum(used) / max(self.pool.effective_capacity_gb, 1e-12))
        factor_gauge = metrics.gauge(
            "pool_capacity_factor",
            "Per-node ThymesisFlow capacity factor from the pool arbiter",
            labels=("node",),
        )
        alloc_gauge = metrics.gauge(
            "pool_waterfill_alloc_gbps",
            "Per-node fabric bandwidth granted by the arbiter this tick",
            labels=("node",),
        )
        cap = self.pool.link_capacity_gbps
        throttle_counter = metrics.counter(
            "pool_throttle_events_total",
            "Pool arbiter throttle events by node, cause and regime",
            labels=("node", "cause", "regime"),
        )
        node_factors: dict[str, float] = {}
        for index, (engine, factor) in enumerate(zip(self.engines, factors)):
            node = engine.node_label or f"n{index}"
            node_factors[node] = factor
            factor_gauge.labels(node=node).set(factor)
            granted = (
                min(offered[index], cap) if factor >= 1.0 - 1e-12
                else factor * cap
            )
            alloc_gauge.labels(node=node).set(granted)
            if factor < 1.0 - 1e-12:
                throttle_counter.labels(
                    node=node, cause="bandwidth", regime=regime
                ).inc()
        live = obs.live_session()
        if live is None:
            return
        current = tuple(throttled_nodes)
        if current:
            # One "pool" record per throttled fleet tick: the offline
            # report derives per-node throttled-tick counts from these.
            live.note_pool(
                sim=round(self._now, 6),
                regime=regime,
                throttled=list(current),
                factors={
                    node: round(factor, 6)
                    for node, factor in node_factors.items()
                },
                bw_util=round(bw_util, 6),
            )
        if current != self._last_throttled:
            # Edge-triggered event for the dashboard's event feed.
            live.note_event(
                "pool_throttle",
                sim=round(self._now, 6),
                regime=regime,
                nodes=list(current),
            )
        self._last_throttled = current

    # -- placement ---------------------------------------------------------
    def deploy(
        self,
        profile: WorkloadProfile,
        decision: FleetDecision,
        duration_s: float | None = None,
        decided_s: float | None = None,
    ) -> Deployment:
        if not 0 <= decision.node_index < self.n_nodes:
            raise ValueError(
                f"node index {decision.node_index} out of range "
                f"[0, {self.n_nodes})"
            )
        engine = self.engines[decision.node_index]
        if engine.journey is not None:
            engine.journey.hop(
                profile.name,
                decided_s if decided_s is not None else engine.now,
                "placement",
                engine.now,
                mode=decision.mode.value,
            )
        return engine.deploy(
            profile, decision.mode, duration_s=duration_s, decided_s=decided_s
        )

    # -- simulation ----------------------------------------------------------
    def tick(self) -> None:
        acct = perf_accounting()
        t0 = acct.clock() if acct is not None else 0.0
        if self.health is not None:
            # Heartbeats, drains and pool derates land before
            # arbitration so this tick's water-fill and placements see
            # the post-failure fleet.
            inner = acct.recorded if acct is not None else 0.0
            self.health.step(self)
            if acct is not None:
                # Failover placements inside the step lap their own
                # decisions; the health lap keeps only the rest.
                t0 = acct.lap("fleet.health", t0, nested=acct.recorded - inner)
        self._arbitrate()
        if acct is not None:
            acct.lap("fleet.arbitration", t0)
        for engine in self.engines:
            engine.tick()
        self._now += self.dt
        if any(abs(engine.now - self._now) > 1e-9 for engine in self.engines):
            raise RuntimeError(
                "fleet clock drift: an engine was advanced outside the fleet"
            )
        for hook in tuple(self.tick_hooks):
            hook(self)

    def run_for(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot run backwards")
        end = self._now + seconds
        while self._now < end - 1e-9:
            self.tick()

    def _busy(self) -> bool:
        """Whether any deployment still runs or waits in a retry or
        failover queue — draining on ``running`` alone would drop the
        parked ones from the trace silently."""
        return bool(
            any(engine.running for engine in self.engines)
            or self.queued_remote
            or self.pending_failover
        )

    def drain(self, max_seconds: float = 86400.0) -> bool:
        """Advance whole fleet ticks until the rack is idle or
        ``max_seconds`` pass; returns whether it fully drained.  A missed
        deadline is not an error here — the serving daemon checkpoints
        whatever is still in flight.
        """
        waited = 0.0
        while self._busy() and waited < max_seconds - 1e-9:
            self.tick()
            waited += self.dt
        return not self._busy()

    def run_until_idle(self, max_seconds: float = 86400.0) -> None:
        """:meth:`drain`, raising if the rack is still busy at the deadline."""
        if not self.drain(max_seconds):
            still_running = sum(len(engine.running) for engine in self.engines)
            raise RuntimeError(
                f"{still_running} deployments still running, "
                f"{self.queued_remote} queued and {self.pending_failover} "
                f"awaiting failover after {max_seconds} s drain"
            )

    # -- queries -----------------------------------------------------------
    def records(self) -> list[DeploymentRecord]:
        out: list[DeploymentRecord] = []
        for engine in self.engines:
            out.extend(engine.trace.records)
        return out

    def node_load(self, node_index: int) -> float:
        """Scalar load estimate for the iso-QoS tie-break.

        Combines CPU utilization, LLC occupancy and link utilization —
        the three pressure axes the characterization identified as
        performance-relevant.
        """
        engine = self.engines[node_index]
        if engine.dead:
            return float("inf")
        pressure = engine.current_pressure()
        return (
            pressure.cpu_utilization
            + pressure.llc.occupancy
            + pressure.link.utilization
        )


class LeastLoadedPlacement:
    """Two-level scheduler: least-loaded node, then per-node mode policy.

    ``mode_policy`` is any single-node policy (e.g.
    :class:`repro.orchestrator.AdriasPolicy`); the fleet layer selects
    the target node first (cluster-level efficiency), then asks the
    policy to pick the memory mode against that node's state.  Nodes
    whose remote pool is unreachable (link outage) are skipped for
    remote placements so one node's outage never fails the fleet; when
    no pool/node combination can take the workload a
    :class:`CapacityError` is raised.
    """

    def __init__(self, mode_policy) -> None:
        self.mode_policy = mode_policy

    @property
    def name(self) -> str:
        inner = getattr(self.mode_policy, "name", None) or (
            self.mode_policy.__class__.__name__
        )
        return f"{self.__class__.__name__}({inner})"

    # Checkpoint state lives in the wrapped per-node policy (breaker,
    # RNG); the fleet layer itself is stateless.
    def state_dict(self) -> dict | None:
        if hasattr(self.mode_policy, "state_dict"):
            return self.mode_policy.state_dict()
        return None

    def load_state_dict(self, data: dict | None) -> None:
        if data is not None and hasattr(self.mode_policy, "load_state_dict"):
            self.mode_policy.load_state_dict(data)

    # -- global step: node ranking ----------------------------------------
    def node_order(self, fleet: ClusterFleet) -> list[int]:
        """Candidate nodes, most preferred first; dead nodes excluded."""
        alive = [i for i in range(fleet.n_nodes) if not fleet.engines[i].dead]
        loads = {i: fleet.node_load(i) for i in alive}
        return sorted(alive, key=lambda i: (loads[i], i))

    @staticmethod
    def _placeable(
        engine: ClusterEngine, profile: WorkloadProfile, mode: MemoryMode
    ) -> bool:
        """Capacity *and* reachability: fits() alone misses outages."""
        if mode is MemoryMode.REMOTE and engine.remote_blocked:
            return False
        return engine.fits(profile, mode)

    def __call__(
        self, profile: WorkloadProfile, fleet: ClusterFleet
    ) -> FleetDecision:
        order = self.node_order(fleet)
        if not order:
            raise CapacityError(
                f"{profile.name}: every node in the fleet is down"
            )
        acct = perf_accounting()
        if acct is not None:
            # The decision's own time: its predictor laps count once.
            t0, inner = acct.clock(), acct.recorded
            mode = self.mode_policy.decide(profile, fleet.engines[order[0]])
            acct.lap("policy.decide", t0, nested=acct.recorded - inner)
        else:
            mode = self.mode_policy.decide(profile, fleet.engines[order[0]])
        # Fall back across nodes, then across pools.
        for candidate_mode in (mode, mode.other):
            for index in order:
                if self._placeable(fleet.engines[index], profile, candidate_mode):
                    decision = FleetDecision(index, candidate_mode)
                    if obs.enabled():
                        self._observe(profile, fleet, decision, planned=mode)
                    return decision
        raise CapacityError(f"{profile.name} fits nowhere in the fleet")

    def _observe(
        self,
        profile: WorkloadProfile,
        fleet: ClusterFleet,
        decision: FleetDecision,
        planned: MemoryMode,
    ) -> None:
        """Audit the *final* fleet placement, not the inner policy's plan.

        The fleet layer calls ``mode_policy.decide()`` directly (the
        node choice needs the mode first), which bypasses
        ``_BasePolicy.__call__`` — without this hook fleet placements
        would leave zero audit rows.  The row records the serving node
        and the mode actually placed; when node/pool fallback overrode
        the inner policy's plan the reason is tagged ``fleet-fallback``
        so overrides stay distinguishable from first-choice placements.
        """
        engine = fleet.engines[decision.node_index]
        node = engine.node_label or f"n{decision.node_index}"
        obs.metrics().counter(
            "orchestrator_decisions_total",
            "Placement decisions by policy, chosen mode and workload kind",
            labels=("policy", "mode", "kind", "node"),
        ).labels(
            policy=self.name,
            mode=decision.mode.value,
            kind=profile.kind.value,
            node=node,
        ).inc()
        live = obs.live_session()
        if live is not None:
            live.note_decision(
                self.name, decision.mode.value, profile.kind.value, node=node
            )
        if profile.kind is WorkloadKind.INTERFERENCE:
            return  # the paper's policies only govern BE/LC placement
        detail = (
            self.mode_policy._audit_detail()
            if hasattr(self.mode_policy, "_audit_detail")
            else {}
        )
        if decision.mode is not planned:
            reason = detail.get("reason", "")
            detail["reason"] = (
                f"{reason}+fleet-fallback" if reason else "fleet-fallback"
            )
        obs.audit().record(
            engine=engine,
            policy=self.name,
            app_name=profile.name,
            kind=profile.kind.value,
            chosen_mode=decision.mode.value,
            node=node,
            **detail,
        )


class PoolAwarePlacement(LeastLoadedPlacement):
    """Least-loaded ranking, penalizing lanes the pool arbiter throttled.

    When the rack fabric saturates, the :class:`RemotePool` arbiter
    scales down the ThymesisFlow capacity of the hungriest nodes; this
    scheduler folds that throttle into the node score so new work drifts
    toward nodes with unthrottled lanes and pool headroom.
    """

    def __init__(self, mode_policy, throttle_weight: float = 1.0) -> None:
        super().__init__(mode_policy)
        if throttle_weight < 0:
            raise ValueError("throttle_weight cannot be negative")
        self.throttle_weight = throttle_weight

    def node_order(self, fleet: ClusterFleet) -> list[int]:
        def score(index: int) -> tuple[float, int]:
            throttle = 1.0 - fleet.engines[index].pool_capacity_factor
            return (
                fleet.node_load(index) + self.throttle_weight * throttle,
                index,
            )

        alive = [i for i in range(fleet.n_nodes) if not fleet.engines[i].dead]
        return sorted(alive, key=score)
