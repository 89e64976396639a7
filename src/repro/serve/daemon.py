"""Long-running orchestrator daemon: admission, ticking, lifecycle.

:class:`OrchestratorDaemon` owns a :class:`~repro.cluster.fleet.ClusterFleet`,
a placement scheduler, an always-on :class:`~repro.obs.live.slo.SloEngine`
and a :class:`~repro.serve.safety.SafetyMonitor`, and exposes a small
request API (``deploy`` / ``complete`` / ``query`` / ``drain`` /
``health`` / ``pause`` / ``resume`` / ``tick``) that the socket server in
:mod:`repro.serve.server` maps one-to-one onto newline-delimited JSON.

Robustness properties, all exercised by the soak tests:

* **Never crashes on input** — malformed or unknown requests produce an
  error response; every handler runs under a catch-all.
* **Watchdog** — a fault plan's ``wedged_tick`` window starves the tick
  loop; once the wall-clock heartbeat exceeds ``watchdog_timeout_s`` the
  daemon restarts the engine loop *behind the circuit breaker*: the
  breaker opens on the restart, half-opens after its cooldown and
  re-closes on the first clean tick.
* **Graceful drain** — SIGTERM/SIGINT (wired by the server) parks
  in-flight deployments into a crash-safe daemon checkpoint (atomic
  write), flushes observability and annotates the live stream's ``end``
  record with the drain reason.
* **Warm restart** — :meth:`OrchestratorDaemon.restore` rebuilds the
  daemon from its checkpoint bit-identically: re-saving the restored
  daemon yields byte-equal checkpoint files.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.cluster.engine import CapacityError, RemoteUnavailableError
from repro.cluster.failover import FleetHealthManager
from repro.cluster.fleet import ClusterFleet, FleetDecision, LeastLoadedPlacement
from repro.cluster.scenario import default_pool
from repro.faults.breaker import CircuitBreaker, CircuitState
from repro.faults.checkpoint import (
    dataclass_from_dict,
    fleet_state,
    load_fleet_state,
    policy_state,
    read_checkpoint,
    require_fields,
    restore_policy,
    write_checkpoint,
)
from repro.faults.plan import FLEET_KINDS, FaultPlan
from repro.hardware.pool import RemotePoolConfig
from repro.obs.live.slo import SloEngine
from repro.orchestrator.policies import InterferenceThresholdPolicy
from repro.serve.safety import SafetyEnvelope, SafetyMonitor
from repro.workloads.base import MemoryMode, WorkloadKind

__all__ = [
    "DaemonConfig",
    "OrchestratorDaemon",
    "load_daemon_checkpoint",
]

#: Ledger statuses a deployment can still leave (finish matching).
_OPEN_STATUSES = ("running", "parked")
#: Fields every ledger entry carries, whatever its status.
_LEDGER_FIELDS = ("id", "app", "status", "decided_s")


@dataclass(frozen=True)
class DaemonConfig:
    """Everything needed to rebuild the daemon's serving state."""

    n_nodes: int = 2
    dt: float = 1.0
    max_link_utilization: float = 0.7
    tick_interval_s: float = 0.01
    watchdog_timeout_s: float = 1.0
    request_timeout_s: float = 5.0
    breaker_cooldown_s: float = 30.0
    drain_grace_s: float = 0.0
    pool_regime: str | None = None
    pool_capacity_gb: float | None = None
    pool_bw_gbps: float | None = None
    seed: int = 0
    qos_p99_ms: dict = field(
        default_factory=lambda: {"redis": 4.0, "memcached": 3.0}
    )
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        for name in ("dt", "tick_interval_s", "watchdog_timeout_s",
                     "request_timeout_s", "breaker_cooldown_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.drain_grace_s < 0:
            raise ValueError("drain_grace_s cannot be negative")


def load_daemon_checkpoint(path) -> dict:
    """Read a daemon checkpoint (see :func:`repro.faults.checkpoint.read_checkpoint`)."""
    return read_checkpoint(path, "daemon")


class OrchestratorDaemon:
    """The serving loop's state machine (transport-agnostic).

    ``clock`` is the wall-clock source for the tick pacer and watchdog;
    tests inject a fake to drive both deterministically.
    """

    def __init__(
        self,
        config: DaemonConfig | None = None,
        envelope: SafetyEnvelope | None = None,
        plan: FaultPlan | None = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config if config is not None else DaemonConfig()
        self.envelope = envelope if envelope is not None else SafetyEnvelope()
        self.plan = plan
        self.clock = clock
        pool = None
        if self.config.pool_regime is not None:
            pool = RemotePoolConfig(
                capacity_gb=self.config.pool_capacity_gb,
                aggregate_bw_gbps=self.config.pool_bw_gbps,
                regime=self.config.pool_regime,
            )
        from repro.hardware.config import TestbedConfig

        self.fleet = ClusterFleet(
            n_nodes=self.config.n_nodes,
            testbed_config=TestbedConfig(seed=self.config.seed),
            dt=self.config.dt,
            pool=pool,
        )
        self.scheduler = LeastLoadedPlacement(
            InterferenceThresholdPolicy(self.config.max_link_utilization)
        )
        #: Fleet failure-domain manager; armed only when the fault plan
        #: carries fleet-level kinds (node_crash / node_rejoin /
        #: pool_device_fail), so plain daemons stay bit-identical.
        self.health: FleetHealthManager | None = None
        if self.plan is not None and any(
            spec.kind in FLEET_KINDS for spec in self.plan.faults
        ):
            self.plan.validate(self.fleet.n_nodes)
            self.health = FleetHealthManager(
                self.plan, scheduler=self.scheduler
            )
            self.fleet.health = self.health
        self.breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown_s=self.config.breaker_cooldown_s,
            name="daemon-engine",
            node="fleet",
        )
        # Always-on: SloEngine writes through obs.runtime, which is a
        # null registry while observability is off.
        self.slo = SloEngine(targets=dict(self.config.qos_p99_ms))
        self.monitor = SafetyMonitor(
            self.envelope, breaker=self.breaker, slo=self.slo
        )
        self.profiles = {p.name: p for p in default_pool()}
        #: Admission ledger: request id -> lifecycle entry.
        self.ledger: dict[str, dict] = {}
        #: (app name, round(decided_s, 6)) -> open request ids, the same
        #: join key the decision audit log uses.
        self._by_key: dict[tuple[str, float], list[str]] = {}
        self._next_id = 0
        self.counters = {
            "submitted": 0,
            "finished": 0,
            "parked": 0,
            "rejected": 0,
            "vetoed": 0,
            "downgraded": 0,
            "completed_early": 0,
            "double_finished": 0,
            "malformed": 0,
            "dropped_conns": 0,
            "watchdog_restarts": 0,
        }
        self.draining = False
        self.drain_reason: str | None = None
        self.paused = False
        #: Indices of wedged_tick plan windows already recovered from —
        #: the sim clock is frozen during a wedge, so without this the
        #: same window would re-wedge immediately after recovery.
        self._cleared_wedges: set[int] = set()
        #: Connection-drop dice; deliberately *not* checkpointed (drops
        #: model the transport, not the orchestrated state).
        seed = self.plan.seed if self.plan is not None else self.config.seed
        self._conn_rng = np.random.default_rng([seed, 0xDAE])
        self._last_tick_wall = self.clock()
        self._wire_engines()

    # -- wiring --------------------------------------------------------------
    def _wire_engines(self) -> None:
        """Chain the ledger/SLO finish hook onto every fleet engine.

        Called once, at construction: checkpoint restore loads engine
        state into these same engines, so the hooks survive it.
        """
        for engine in self.fleet.engines:
            previous = engine.on_finish

            def hook(record, _prev=previous):
                if _prev is not None:
                    _prev(record)
                self._on_finish(record)

            engine.on_finish = hook

    def _on_finish(self, record) -> None:
        self.counters["finished"] += 1
        if record.kind is WorkloadKind.LATENCY_CRITICAL:
            self.slo.record(record.name, record.p99_ms, clock=self.fleet.now)
        decided = record.decided_s
        if decided is None:
            return
        key = (record.name, round(decided, 6))
        for req_id in self._by_key.get(key, []):
            entry = self.ledger.get(req_id)
            if entry is None:
                continue
            if entry["status"] in _OPEN_STATUSES:
                entry["status"] = "finished"
                entry["finish_clock"] = round(record.finish_time, 6)
                return
        # Every id under this key already finished: a second record for
        # the same decision would double-count a deployment.
        if key in self._by_key:
            self.counters["double_finished"] += 1

    # -- tick loop -----------------------------------------------------------
    def _wedge_active(self) -> int | None:
        """Index of the active, not-yet-recovered wedged_tick window."""
        if self.plan is None:
            return None
        for index, spec in enumerate(self.plan.faults):
            if (
                spec.kind == "wedged_tick"
                and spec.active(self.fleet.now)
                and index not in self._cleared_wedges
            ):
                return index
        return None

    def pump(self) -> bool:
        """Advance the simulation if a tick is due; returns whether it did.

        The server calls this between socket polls.  While paused or
        draining the heartbeat is reset (a deliberately idle loop is not
        a wedged one).  A wedged tick loop does *not* advance — the
        heartbeat ages until the watchdog fires and restarts the engine
        loop behind the breaker.
        """
        if self.paused or self.draining:
            self._last_tick_wall = self.clock()
            return False
        now_wall = self.clock()
        if now_wall - self._last_tick_wall < self.config.tick_interval_s:
            return False
        if self._wedge_active() is not None:
            if (
                now_wall - self._last_tick_wall
                >= self.config.watchdog_timeout_s
            ):
                self._recover_wedge()
                return True
            return False
        self._tick()
        return True

    def _tick(self) -> None:
        """One guarded fleet tick; a half-open breaker probes on it."""
        probing = (
            self.breaker.allow(self.fleet.now)
            and self.breaker.state is CircuitState.HALF_OPEN
        )
        try:
            self.fleet.tick()
        except Exception:
            self.breaker.record_failure(self.fleet.now)
            raise
        self.slo.advance(self.fleet.now)
        if probing:
            self.breaker.record_success(self.fleet.now)
        self._last_tick_wall = self.clock()

    def _recover_wedge(self) -> None:
        """Watchdog: restart the wedged engine loop behind the breaker."""
        index = self._wedge_active()
        if index is not None:
            self._cleared_wedges.add(index)
        self.counters["watchdog_restarts"] += 1
        self.breaker.record_failure(self.fleet.now)
        if obs.enabled():
            obs.metrics().counter(
                "daemon_watchdog_restarts_total",
                "Engine-loop restarts triggered by the tick watchdog",
            ).inc()
        live = obs.live_session()
        if live is not None:
            live.note_event(
                "watchdog",
                sim=round(self.fleet.now, 6),
                clock=round(self.fleet.now, 6),
                action="engine-restart",
                breaker=self.breaker.state.value,
            )
        self._last_tick_wall = self.clock()

    # -- connection faults ----------------------------------------------------
    def maybe_drop_connection(self) -> bool:
        """Whether the transport should drop the next request (fault plan)."""
        if self.plan is None:
            return False
        spec = self.plan.active(("conn_drop",), self.fleet.now)
        if spec is None:
            return False
        if self._conn_rng.random() >= spec.param("probability", 0.0):
            return False
        self.counters["dropped_conns"] += 1
        live = obs.live_session()
        if live is not None:
            live.note_event(
                "conn_drop", sim=round(self.fleet.now, 6),
                clock=round(self.fleet.now, 6),
            )
        return True

    # -- request handling ------------------------------------------------------
    def handle_line(self, line: str) -> dict:
        """Serve one newline-delimited JSON request; never raises."""
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            self.counters["malformed"] += 1
            return {"ok": False, "error": f"malformed JSON: {error}"}
        if not isinstance(data, dict):
            self.counters["malformed"] += 1
            return {"ok": False, "error": "request must be a JSON object"}
        op = data.get("op")
        handler = {
            "deploy": self._op_deploy,
            "complete": self._op_complete,
            "query": self._op_query,
            "drain": self._op_drain,
            "health": self._op_health,
            "pause": self._op_pause,
            "resume": self._op_resume,
            "tick": self._op_tick,
        }.get(op)
        if handler is None:
            self.counters["malformed"] += 1
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            return handler(data)
        except Exception as error:  # noqa: BLE001 — the loop must survive
            return {
                "ok": False,
                "error": f"{type(error).__name__}: {error}",
            }

    def _new_entry(self, app: str, status: str, **fields) -> dict:
        req_id = f"d{self._next_id}"
        self._next_id += 1
        entry = {"id": req_id, "app": app, "status": status, **fields}
        self.ledger[req_id] = entry
        return entry

    def _op_deploy(self, data: dict) -> dict:
        if self.draining:
            return {"ok": False, "error": "daemon is draining"}
        app = data.get("app")
        profile = self.profiles.get(app)
        if profile is None:
            return {"ok": False, "error": f"unknown workload {app!r}"}
        duration = data.get("duration")
        if duration is not None and (
            not isinstance(duration, (int, float)) or duration <= 0
        ):
            return {"ok": False, "error": "duration must be positive"}
        decided = self.fleet.now
        try:
            decision = self.scheduler(profile, self.fleet)
        except CapacityError as error:
            self.counters["rejected"] += 1
            entry = self._new_entry(app, "rejected",
                                    decided_s=round(decided, 6))
            return {
                "ok": False, "id": entry["id"], "status": "rejected",
                "error": str(error),
            }
        engine = self.fleet.engines[decision.node_index]
        node = engine.node_label or f"n{decision.node_index}"
        verdict = self.monitor.review(
            profile, decision.mode, engine,
            fleet=self.fleet, clock=self.fleet.now,
        )
        if not verdict.admitted:
            decision, veto = self._apply_verdict(profile, decision, verdict)
            if veto is not None:
                return veto
            engine = self.fleet.engines[decision.node_index]
            node = engine.node_label or f"n{decision.node_index}"
        status = "running"
        deployment = None
        try:
            deployment = self.fleet.deploy(
                profile, decision, duration_s=duration, decided_s=decided
            )
        except RemoteUnavailableError:
            engine.queue_remote(profile, duration_s=duration,
                                decided_s=decided)
            status = "parked"
            self.counters["parked"] += 1
        self.counters["submitted"] += 1
        self.fleet.note_submitted()
        entry = self._new_entry(
            app, status,
            node=node, mode=decision.mode.value,
            decided_s=round(decided, 6),
            app_id=deployment.app_id if deployment is not None else None,
        )
        self._by_key.setdefault((app, round(decided, 6)), []).append(
            entry["id"]
        )
        return {
            "ok": True, "id": entry["id"], "status": status,
            "node": node, "mode": decision.mode.value,
        }

    def _apply_verdict(
        self, profile, decision: FleetDecision, verdict
    ) -> tuple[FleetDecision, dict | None]:
        """Resolve a non-admit verdict into a local fallback or a veto.

        Returns ``(decision, None)`` for a successful downgrade or
        ``(decision, response)`` when the request is vetoed outright.
        Both outcomes are audited as first-class decision causes.
        """
        constraint = verdict.constraint
        if verdict.action == "downgrade":
            for index in self.scheduler.node_order(self.fleet):
                engine = self.fleet.engines[index]
                if engine.fits(profile, MemoryMode.LOCAL):
                    self.counters["downgraded"] += 1
                    self._audit_safety(
                        profile, engine, "local",
                        f"safety-downgrade:{constraint}", constraint,
                    )
                    return FleetDecision(index, MemoryMode.LOCAL), None
        # Veto action, or a downgrade with no local headroom anywhere.
        # The row and its outcome join belong to the engine judged.
        self.counters["vetoed"] += 1
        engine = self.fleet.engines[decision.node_index]
        node = verdict.detail.get("node", engine.node_label or "n0")
        self._audit_safety(
            profile, engine, "none", f"safety-veto:{constraint}", constraint
        )
        entry = self._new_entry(
            profile.name, "vetoed",
            node=node, constraint=constraint,
            decided_s=round(self.fleet.now, 6),
        )
        return decision, {
            "ok": False, "id": entry["id"], "status": "vetoed",
            "constraint": constraint,
            "detail": dict(verdict.detail),
        }

    def _audit_safety(
        self, profile, engine, chosen: str, reason: str, cause: str
    ) -> None:
        obs.audit().record(
            engine=engine,
            policy=self.scheduler.name,
            app_name=profile.name,
            kind=profile.kind.value,
            chosen_mode=chosen,
            reason=reason,
            cause=cause,
        )

    def _op_complete(self, data: dict) -> dict:
        req_id = data.get("id")
        entry = self.ledger.get(req_id)
        if entry is None:
            return {"ok": False, "error": f"unknown deployment id {req_id!r}"}
        if entry["status"] != "running":
            return {
                "ok": False,
                "error": f"deployment {req_id} is {entry['status']}, "
                "not running",
            }
        deployment = self._find_deployment(entry)
        if deployment is None:
            return {
                "ok": False,
                "error": f"deployment {req_id} not found on {entry['node']}",
            }
        # Force the *natural* finish lever for the workload class and
        # let the next tick retire it through the normal accounting path
        # (trace, on_finish, journey) — finishing it in place here would
        # bypass all three.
        deployment.complete_early()
        self.counters["completed_early"] += 1
        return {"ok": True, "id": req_id, "status": "completing"}

    def _find_deployment(self, entry: dict):
        for engine in self.fleet.engines:
            if engine.node_label != entry.get("node"):
                continue
            for deployment in engine.running:
                if deployment.app_id == entry.get("app_id"):
                    return deployment
        return None

    def _op_query(self, data: dict) -> dict:
        req_id = data.get("id")
        entry = self.ledger.get(req_id)
        if entry is None:
            return {"ok": False, "error": f"unknown deployment id {req_id!r}"}
        response = {"ok": True, **entry}
        if self.health is not None and entry.get("node"):
            response["node_health"] = self.health.status(entry["node"]).value
        return response

    def _op_drain(self, data: dict) -> dict:
        self.begin_drain(str(data.get("reason") or "client drain request"))
        return {"ok": True, "status": "draining"}

    def _op_health(self, data: dict) -> dict:
        running = sum(len(e.running) for e in self.fleet.engines)
        status = (
            "draining" if self.draining
            else "paused" if self.paused
            else "serving"
        )
        response = {
            "ok": True,
            "status": status,
            "clock": round(self.fleet.now, 6),
            "nodes": self.fleet.n_nodes,
            "running": running,
            "parked": self.fleet.queued_remote,
            "breaker": self.breaker.state.value,
            "counters": dict(self.counters),
            "safety": {
                "vetoes": dict(self.monitor.vetoes),
                "downgrades": dict(self.monitor.downgrades),
            },
        }
        if self.health is not None:
            summary = self.health.summary()
            response["node_health"] = {
                node: self.health.status(node).value
                for node in (
                    engine.node_label or f"n{index}"
                    for index, engine in enumerate(self.fleet.engines)
                )
            }
            response["failovers"] = summary["failovers"]
            response["failover_queue"] = summary["failover_queue"]
        return response

    def _op_pause(self, data: dict) -> dict:
        self.paused = True
        return {"ok": True, "status": "paused"}

    def _op_resume(self, data: dict) -> dict:
        self.paused = False
        return {"ok": True, "status": "serving"}

    def _op_tick(self, data: dict) -> dict:
        n = data.get("n", 1)
        if not isinstance(n, int) or not 1 <= n <= 100000:
            return {"ok": False, "error": "n must be an int in [1, 100000]"}
        for _ in range(n):
            self._tick()
        return {"ok": True, "clock": round(self.fleet.now, 6)}

    # -- lifecycle -------------------------------------------------------------
    def begin_drain(self, reason: str) -> None:
        if self.draining:
            return
        self.draining = True
        self.drain_reason = reason
        live = obs.live_session()
        if live is not None:
            live.note_event(
                "drain", reason=reason, sim=round(self.fleet.now, 6),
                clock=round(self.fleet.now, 6),
            )

    def finalize(self) -> Path | None:
        """Drain-time teardown: grace ticks, checkpoint, close the stream.

        In-flight deployments are *parked in the checkpoint*, not lost: a
        warm restart resumes them mid-flight bit-identically.
        """
        if self.config.drain_grace_s > 0:
            self.fleet.drain(max_seconds=self.config.drain_grace_s)
        path = None
        if self.config.checkpoint_path:
            path = self.save(self.config.checkpoint_path)
        live = obs.live_session()
        if live is not None:
            live.close(reason="daemon draining")
        return path

    # -- checkpointing ---------------------------------------------------------
    def save(self, path) -> Path:
        """Atomically write the daemon checkpoint (crash-safe)."""
        return write_checkpoint(
            path,
            "daemon",
            config=dataclasses.asdict(self.config),
            envelope=self.envelope.to_dict(),
            plan=self.plan.to_dict() if self.plan is not None else None,
            fleet=fleet_state(self.fleet),
            breaker=self.breaker.state_dict(),
            policy=policy_state(self.scheduler),
            safety=self.monitor.state_dict(),
            ledger=self.ledger,
            next_id=self._next_id,
            counters=self.counters,
            cleared_wedges=sorted(self._cleared_wedges),
        )

    @classmethod
    def restore(cls, path, clock=time.monotonic) -> "OrchestratorDaemon":
        """Warm-restart a daemon from its checkpoint, bit-identically.

        The daemon is rebuilt from the checkpointed config, envelope and
        plan exactly as it was first built, then its fleet state is
        loaded into those same engines in place.
        """
        data = load_daemon_checkpoint(path)
        config = dataclass_from_dict(DaemonConfig, data["config"], "daemon config")
        plan = FaultPlan.from_dict(data["plan"]) if data["plan"] is not None else None
        daemon = cls(
            config,
            envelope=SafetyEnvelope.from_dict(data["envelope"]),
            plan=plan,
            clock=clock,
        )
        load_fleet_state(daemon.fleet, data["fleet"], daemon.profiles)
        daemon.breaker.load_state_dict(data["breaker"])
        restore_policy(daemon.scheduler, data["policy"])
        daemon.monitor.load_state_dict(data["safety"])
        daemon.ledger = {
            key: dict(require_fields(entry, "ledger entry", _LEDGER_FIELDS))
            for key, entry in data["ledger"].items()
        }
        daemon._next_id = data["next_id"]
        daemon.counters.update(
            require_fields(data["counters"], "counters", tuple(daemon.counters))
        )
        daemon._cleared_wedges = set(data["cleared_wedges"])
        for entry in daemon.ledger.values():
            if entry["status"] in _OPEN_STATUSES:
                daemon._by_key.setdefault(
                    (entry["app"], round(entry["decided_s"], 6)), []
                ).append(entry["id"])
        daemon._last_tick_wall = daemon.clock()
        return daemon
