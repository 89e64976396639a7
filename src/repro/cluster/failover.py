"""Fleet failure domains: crash detection, failover, pool device loss.

The disaggregation surveys (Yelam; Maruf & Chowdhury) single out two
resilience problems a pooled-memory rack must solve that a single
borrower node never sees:

* a **node crash** strands the deployments it was serving — someone has
  to notice the silence, declare the node dead and re-place its work on
  survivors;
* a **pool device failure** has an enlarged blast radius: one failed
  memory device shrinks capacity/bandwidth for *every* lane drawing
  from the pool, so remote segments that no longer fit must be evicted
  (re-placed locally) or parked rather than silently oversubscribed.

:class:`FleetHealthManager` owns both, driven purely by the fleet clock
and the declarative fault plan (kinds ``node_crash`` / ``node_rejoin``
/ ``pool_device_fail``), which keeps seeded runs bit-reproducible:

1. **Failure detector** — a node covered by an active ``node_crash``
   window fail-stops immediately (its engine freezes), but the fleet
   only learns of it through missed heartbeats: after
   ``suspect_after`` missed beats the node is SUSPECT, after
   ``down_after`` it is DOWN.
2. **Failover** — marking a node DOWN drains its in-flight deployments
   and outage-parked retries into a failover queue, replayed every tick
   through the fleet's two-level placement onto surviving nodes
   (parking entries while the rack is genuinely full).  Fail-stop
   semantics: in-flight progress is lost, the deployment restarts on
   its new node.
3. **Rejoin** — when the crash window closes (or an explicit
   ``node_rejoin`` window overrides it) the node re-admits with cold
   telemetry: its trace holds an all-NaN gap for the dead interval and
   placement sees it again from the next tick.
4. **Device loss** — active ``pool_device_fail`` windows derate the
   shared :class:`~repro.hardware.pool.RemotePool`; the water-fill
   arbiter re-arbitrates against the surviving bandwidth on the same
   tick, and remote segments exceeding the surviving capacity are
   evicted from the hungriest lanes (re-placed locally when possible,
   parked otherwise).

Conservation invariant: every deployment the fleet admitted is, at
every tick, exactly one of finished / running / parked (retry or
failover queue) / dropped — :meth:`ClusterFleet.accounting` exposes the
ledger and the availability experiment asserts it across crashes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

from repro import obs
from repro.cluster.engine import CapacityError
from repro.faults.checkpoint import (
    _fields_to_dict,
    dataclass_from_dict,
    lookup_profile,
    require_fields,
)
from repro.workloads.base import MemoryMode, WorkloadProfile

__all__ = ["NodeHealth", "FailoverConfig", "FailoverEntry", "FleetHealthManager"]


class NodeHealth(str, enum.Enum):
    """Detector verdict for one fleet node."""

    UP = "up"
    SUSPECT = "suspect"
    DOWN = "down"


@dataclass(frozen=True)
class FailoverConfig:
    """Failure-detector thresholds, in missed heartbeats (fleet ticks)."""

    suspect_after: int = 1
    down_after: int = 3

    def __post_init__(self) -> None:
        if self.suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        if self.down_after < self.suspect_after:
            raise ValueError("down_after must be >= suspect_after")


@dataclass
class FailoverEntry:
    """A deployment drained off a failure domain, awaiting re-placement."""

    profile: WorkloadProfile
    #: Preferred mode on the survivor (the mode it ran in).
    mode: MemoryMode
    duration_s: float | None
    #: Original decision time; it keys the audit-log join and the
    #: journey journal across the failover.
    decided_s: float
    from_node: str
    #: ``node_crash`` or ``pool_device_fail``.
    cause: str


class FleetHealthManager:
    """Heartbeat failure detector + failover queue for one fleet.

    Attach via ``fleet.health = manager``; :meth:`step` runs at the top
    of every fleet tick (before pool arbitration, so derates and drains
    are visible to the same tick's placement and water-fill).
    """

    def __init__(
        self,
        plan,
        scheduler=None,
        config: FailoverConfig | None = None,
    ) -> None:
        self.plan = plan
        self.scheduler = scheduler
        self.config = config if config is not None else FailoverConfig()
        #: node label -> NodeHealth (nodes start UP implicitly).
        self.statuses: dict[str, str] = {}
        self._missed: dict[str, int] = {}
        #: Entries awaiting re-placement, oldest first.
        self.failover_queue: list[FailoverEntry] = []
        self.counters: dict[str, int] = {
            "drained": 0,      # deployments + parked retries drained off dead nodes
            "evicted": 0,      # remote segments evicted by pool device loss
            "replayed": 0,     # failover entries re-placed on survivors
        }
        #: Per-(node, cause) failover counts, mirrored to
        #: ``fleet_failovers_total``; kept here too so disabled-obs runs
        #: still report them.
        self.failovers: dict[tuple[str, str], int] = {}
        #: Completed time-to-recover samples (drain start -> queue empty).
        self.recovery_times: list[float] = []
        self._drain_started_s: float | None = None
        self._device_factors = (1.0, 1.0)

    # -- queries -------------------------------------------------------------
    def status(self, node: str) -> NodeHealth:
        return NodeHealth(self.statuses.get(node, NodeHealth.UP.value))

    @property
    def pending(self) -> int:
        """Failover entries still awaiting re-placement."""
        return len(self.failover_queue)

    def summary(self) -> dict:
        """Node health + failover counts for health endpoints."""
        by_node: dict[str, int] = {}
        for (node, _cause), count in self.failovers.items():
            by_node[node] = by_node.get(node, 0) + count
        return {
            "statuses": dict(self.statuses),
            "failover_queue": len(self.failover_queue),
            "failovers": by_node,
            "counters": dict(self.counters),
        }

    # -- per-tick ------------------------------------------------------------
    def step(self, fleet) -> None:
        """One heartbeat round at the top of a fleet tick."""
        now = fleet.now
        self._step_devices(fleet, now)
        for engine in fleet.engines:
            node = engine.node_label or "n0"
            if self.plan.node_crashed(node, now):
                self._beat_missed(fleet, engine, node, now)
            else:
                self._beat_seen(engine, node, now)
        if self.failover_queue:
            self._replay(fleet, now)
        if self._drain_started_s is not None and not self.failover_queue:
            self.recovery_times.append(now - self._drain_started_s)
            self._drain_started_s = None
        if obs.enabled():
            up_gauge = obs.metrics().gauge(
                "fleet_node_up",
                "1 while the node heartbeats, 0 once suspected or down",
                labels=("node",),
            )
            for engine in fleet.engines:
                node = engine.node_label or "n0"
                up = self.status(node) is NodeHealth.UP
                up_gauge.labels(node=node).set(1.0 if up else 0.0)

    # -- heartbeats ----------------------------------------------------------
    def _beat_missed(self, fleet, engine, node: str, now: float) -> None:
        if not engine.dead:
            # Fail-stop is immediate; detection is not.  The engine
            # freezes now, the fleet reacts once the detector fires.
            engine.dead = True
        missed = self._missed.get(node, 0) + 1
        self._missed[node] = missed
        status = self.status(node)
        if status is NodeHealth.DOWN:
            return
        if missed >= self.config.down_after:
            self.statuses[node] = NodeHealth.DOWN.value
            drained = self._drain(fleet, engine, node, now)
            self._note_transition("node_down", node, now, drained=drained)
        elif missed >= self.config.suspect_after and status is NodeHealth.UP:
            self.statuses[node] = NodeHealth.SUSPECT.value
            self._note_transition("node_suspect", node, now)

    def _beat_seen(self, engine, node: str, now: float) -> None:
        was = self.status(node)
        if engine.dead:
            engine.dead = False
        if was is not NodeHealth.UP:
            self.statuses[node] = NodeHealth.UP.value
            self._missed[node] = 0
            self._note_transition("node_up", node, now)
        elif self._missed.get(node):
            self._missed[node] = 0

    # -- failover ------------------------------------------------------------
    def _drain(self, fleet, engine, node: str, now: float) -> int:
        """Move a dead node's in-flight work and parked retries into the
        failover queue, emptying both; returns how many moved."""
        drained = len(engine.deployments) + len(engine._retry_queue)
        for deployment in engine.deployments:
            decided = deployment.decided_s
            decided = decided if decided is not None else deployment.arrival_time
            self._enqueue(
                profile=deployment.profile,
                mode=deployment.mode,
                duration_s=deployment.duration_s,
                decided_s=decided,
                from_node=node,
                cause="node_crash",
                now=now,
                journey=engine.journey,
            )
        for entry in engine._retry_queue:
            self._enqueue(
                profile=entry.profile,
                mode=MemoryMode.REMOTE,
                duration_s=entry.duration_s,
                decided_s=entry.decided_s,
                from_node=node,
                cause="node_crash",
                now=now,
                journey=engine.journey,
            )
        engine.set_inflight([])
        engine._retry_queue = []
        return drained

    def _enqueue(
        self,
        profile: WorkloadProfile,
        mode: MemoryMode,
        duration_s: float | None,
        decided_s: float,
        from_node: str,
        cause: str,
        now: float,
        journey=None,
    ) -> None:
        self.failover_queue.append(
            FailoverEntry(
                profile=profile,
                mode=mode,
                duration_s=duration_s,
                decided_s=decided_s,
                from_node=from_node,
                cause=cause,
            )
        )
        self.counters["drained" if cause == "node_crash" else "evicted"] += 1
        key = (from_node, cause)
        self.failovers[key] = self.failovers.get(key, 0) + 1
        if self._drain_started_s is None:
            self._drain_started_s = now
        if journey is not None:
            journey.hop(
                profile.name, decided_s, "failover", now, cause=cause
            )
        if obs.enabled():
            obs.metrics().counter(
                "fleet_failovers_total",
                "Deployments drained off a failure domain, by node and cause",
                labels=("node", "cause"),
            ).labels(node=from_node, cause=cause).inc()

    def _replay(self, fleet, now: float) -> None:
        """Re-place queued entries on survivors; park what still won't fit."""
        keep: list[FailoverEntry] = []
        for entry in self.failover_queue:
            if self._try_place(fleet, entry):
                self.counters["replayed"] += 1
            else:
                keep.append(entry)
        self.failover_queue = keep

    def _try_place(self, fleet, entry: FailoverEntry) -> bool:
        profile = entry.profile
        if self.scheduler is not None:
            try:
                decision = self.scheduler(profile, fleet)
                fleet.deploy(
                    profile,
                    decision,
                    duration_s=entry.duration_s,
                    decided_s=entry.decided_s,
                )
                return True
            except CapacityError:
                return False
        from repro.cluster.fleet import FleetDecision

        preferred = entry.mode
        alive = [i for i, e in enumerate(fleet.engines) if not e.dead]
        order = sorted(alive, key=lambda i: (fleet.node_load(i), i))
        for mode in (preferred, preferred.other):
            for index in order:
                engine = fleet.engines[index]
                if mode is MemoryMode.REMOTE and engine.remote_blocked:
                    continue
                if not engine.fits(profile, mode):
                    continue
                try:
                    fleet.deploy(
                        profile,
                        FleetDecision(index, mode),
                        duration_s=entry.duration_s,
                        decided_s=entry.decided_s,
                    )
                    return True
                except CapacityError:
                    continue
        return False

    # -- pool devices --------------------------------------------------------
    def _step_devices(self, fleet, now: float) -> None:
        if fleet.pool is None:
            return
        factors = self.plan.device_fault_factors(now)
        # Applied unconditionally: a resumed fleet rebuilds its pool
        # with pristine factors, and the edge detection below must not
        # mask the re-apply.
        fleet.pool.set_device_factors(*factors)
        previous = self._device_factors
        if factors != previous:
            shrunk = (
                factors[0] < previous[0] - 1e-12
                or factors[1] < previous[1] - 1e-12
            )
            phase = "begin" if factors != (1.0, 1.0) else "end"
            self._note_transition(
                "pool_device_fail",
                "pool",
                now,
                phase=phase,
                capacity_factor=factors[0],
                bandwidth_factor=factors[1],
            )
            if shrunk:
                self._evict_overflow(fleet, now)
            self._device_factors = factors
        if obs.enabled():
            obs.metrics().gauge(
                "pool_device_capacity_gbps",
                "Fabric bandwidth surviving the active pool-device faults",
            ).set(fleet.pool.effective_bw_gbps)

    def _evict_overflow(self, fleet, now: float) -> None:
        """Evict remote segments that no longer fit the derated pool.

        Blast-radius rule: victims come from the hungriest lanes (most
        remote memory drawn) first, and within a lane the largest
        segment goes first — the minimum set of evictions that brings
        the pool back under its surviving capacity, charged to the
        lanes that drew the most from it.
        """
        pool = fleet.pool
        while True:
            used = fleet._remote_used_gb()
            over: int | None = None
            if pool.regime.value == "pooled":
                if sum(used) <= pool.effective_capacity_gb + 1e-9:
                    return
                over = max(range(len(used)), key=lambda i: (used[i], -i))
            else:
                outside = [
                    i for i, u in enumerate(used)
                    if u > pool.node_capacity_gb + 1e-9
                ]
                if not outside:
                    return
                over = max(outside, key=lambda i: (used[i], -i))
            engine = fleet.engines[over]
            victims = [
                d for d in engine.running if d.mode is MemoryMode.REMOTE
            ]
            if not victims:
                return
            victim = max(
                victims, key=lambda d: (d.profile.footprint_gb, -d.app_id)
            )
            engine.withdraw(victim)
            decided = victim.decided_s
            decided = decided if decided is not None else victim.arrival_time
            node = engine.node_label or f"n{over}"
            self._enqueue(
                profile=victim.profile,
                mode=MemoryMode.REMOTE,
                duration_s=victim.duration_s,
                decided_s=decided,
                from_node=node,
                cause="pool_device_fail",
                now=now,
                journey=engine.journey,
            )

    # -- obs -----------------------------------------------------------------
    def _note_transition(self, kind: str, node: str, now: float, **fields) -> None:
        if obs.enabled():
            obs.metrics().counter(
                "fleet_health_transitions_total",
                "Node/pool health transitions by kind",
                labels=("kind", "node"),
            ).labels(kind=kind, node=node).inc()
        live = obs.live_session()
        if live is not None:
            live.note_event(kind, node=node, sim=round(now, 6), **fields)

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "statuses": dict(self.statuses),
            "missed": dict(self._missed),
            "failover_queue": [
                _fields_to_dict(
                    entry, profile=attrgetter("name"), mode=attrgetter("value")
                )
                for entry in self.failover_queue
            ],
            "counters": dict(self.counters),
            "failovers": [
                [node, cause, count]
                for (node, cause), count in sorted(self.failovers.items())
            ],
            "recovery_times": list(self.recovery_times),
            "drain_started_s": self._drain_started_s,
            "device_factors": list(self._device_factors),
        }

    def load_state_dict(self, data: dict, profiles: dict) -> None:
        require_fields(data, "health", (
            "statuses", "missed", "failover_queue", "counters", "failovers",
            "recovery_times", "drain_started_s", "device_factors",
        ))
        self.statuses = dict(data["statuses"])
        self._missed = {k: int(v) for k, v in data["missed"].items()}
        self.failover_queue = [
            dataclass_from_dict(
                FailoverEntry, entry, "failover entry",
                profile=partial(lookup_profile, profiles), mode=MemoryMode,
            )
            for entry in data["failover_queue"]
        ]
        self.counters.update(
            require_fields(data["counters"], "health counters", tuple(self.counters))
        )
        self.failovers = {
            (node, cause): int(count)
            for node, cause, count in data["failovers"]
        }
        self.recovery_times = list(data["recovery_times"])
        self._drain_started_s = data["drain_started_s"]
        capacity, bandwidth = data["device_factors"]
        self._device_factors = (float(capacity), float(bandwidth))
