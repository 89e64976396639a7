"""Live observability session: ties stream, drift, SLO and the phase
table to the running simulation.

A :class:`LiveSession` is created by :func:`repro.obs.enable_live` (CLI:
``--obs-stream``) and attaches itself to every :class:`ClusterEngine`
constructed while it is active (the engine checks ``obs.live_session()`` in its
constructor).  Per engine it installs

* a tick hook that drives the whole pipeline once per simulated second,
* a :class:`~repro.telemetry.watcher.Watcher` mirroring the engine's
  counter samples — the "realized measurements" that Ŝ forecasts are
  joined against.

Per tick the session

1. joins matured Ŝ forecasts (noted by the Predictor) against the
   Watcher's realized horizon mean and feeds the ``system_state`` drift
   stream;
2. drains newly joined decision-audit rows and feeds their relative
   prediction errors to the ``be`` / ``lc`` drift streams;
3. classifies newly finished LC deployments against the SLO targets and
   refreshes multi-window burn rates;
4. emits one ``tick`` record (clocks, load, link regime, decision mix,
   drift scores, SLO burn) to the JSONL stream.

Every ``_PROFILE_EVERY_TICKS`` ticks, and at close, it also streams the
phase-accounting table (:mod:`repro.obs.perf.accounting`, switched on
with observability) as a ``profile`` record.

Everything runs on the session clock — cumulative simulated seconds
across *all* engines — so back-to-back scenario replays (each restarting
its own clock at zero) keep windows and rates well-defined.

When no live session exists, ``obs.live_session()`` returns ``None`` and every
integration point is a single predicate — simulations are bit-identical
to a build without this module.
"""

from __future__ import annotations

import time
import weakref
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs import runtime
from repro.obs.live.drift import DriftAlarm, DriftDetector
from repro.obs.live.slo import SloEngine
from repro.obs.live.stream import StreamExporter
from repro.obs.perf.accounting import accounting

__all__ = ["LiveSession", "STREAM_VERSION"]

#: Version 2: ``profile`` records carry the phase table (``phases``),
#: not sampled stack frames (``top``).
STREAM_VERSION = 2

#: Session ticks between two streamed phase tables.
_PROFILE_EVERY_TICKS = 200

_REL_EPS = 1e-9


class _EngineState:
    """Per-engine bookkeeping held weakly by the session."""

    __slots__ = ("index", "watcher", "records_seen", "forecasts")

    def __init__(self, index: int, watcher) -> None:
        self.index = index
        self.watcher = watcher
        #: engine.trace.records already classified against the SLO.
        self.records_seen = 0
        #: pending Ŝ forecasts: (emit_time, due_time, s_hat).
        self.forecasts: list[tuple[float, float, np.ndarray]] = []


class LiveSession:
    """Streaming telemetry pipeline over one or more engines."""

    def __init__(
        self,
        out_dir: str | Path,
        *,
        stream_name: str = "stream.jsonl",
        flush_every: int = 64,
        qos_p99_ms: dict[str, float] | None = None,
        objective: float = 0.99,
        slo_windows: tuple[float, ...] = (60.0, 600.0),
        alert_burn: float = 2.0,
        drift_alpha: float = 0.2,
        drift_delta: float = 0.1,
        drift_threshold: float = 8.0,
        drift_min_samples: int = 8,
        on_drift: Callable[[DriftAlarm], None] | None = None,
        max_pending_decisions: int = 4096,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.exporter = StreamExporter(
            self.out_dir / stream_name,
            flush_every=flush_every,
            openmetrics_path=self.out_dir / "stream.prom",
            openmetrics_source=lambda: runtime.metrics().to_prometheus(),
        )
        self.on_drift = on_drift
        self.drift = DriftDetector(
            alpha=drift_alpha,
            delta=drift_delta,
            threshold=drift_threshold,
            min_samples=drift_min_samples,
            on_alarm=self._handle_drift_alarm,
        )
        self.slo = SloEngine(
            targets=qos_p99_ms,
            objective=objective,
            windows=slo_windows,
            alert_burn=alert_burn,
        )
        #: Per-node SLO scorers (fleet runs only), created lazily the
        #: first time a node-labeled engine finishes an LC deployment.
        self._node_slo: dict[str, SloEngine] = {}
        self._slo_kwargs = {
            "targets": qos_p99_ms,
            "objective": objective,
            "windows": slo_windows,
            "alert_burn": alert_burn,
        }
        #: Set on the first tick from a node-labeled engine; gates the
        #: per-node drift streams and the fleet burn rollup.
        self._fleet_seen = False
        #: Cumulative simulated seconds across every attached engine.
        self.clock = 0.0
        self.ticks = 0
        self._engines: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._n_attached = 0
        self._current: Callable[[], object | None] = lambda: None
        self._audit_seen = 0
        self._audit_pending: list = []
        self._max_pending = max_pending_decisions
        self._tick_decisions: dict[str, dict[str, int]] = {}
        self._last_regimes: dict[tuple[str, ...], float] = {}
        self._wall_epoch = time.perf_counter()
        self._closed = False
        self.exporter.emit(
            {
                "t": "meta",
                "version": STREAM_VERSION,
                "created_unix": time.time(),
                "objective": objective,
                "slo_windows": list(slo_windows),
                "qos_apps": sorted(qos_p99_ms) if qos_p99_ms else [],
                "drift": {
                    "delta": drift_delta,
                    "threshold": drift_threshold,
                    "min_samples": drift_min_samples,
                },
            }
        )
        self.exporter.flush()

    # -- engine wiring -------------------------------------------------------
    def attach(self, engine) -> None:
        """Start streaming ``engine`` (idempotent; called by its ctor)."""
        if self._closed or engine in self._engines:
            return
        from repro.telemetry.watcher import Watcher  # late: layering

        capacity_s = max(1024.0 * engine.dt, 4.0 * 120.0)
        watcher = Watcher(history_capacity_s=capacity_s, dt=engine.dt)
        watcher.attach(engine)
        state = _EngineState(index=self._n_attached, watcher=watcher)
        self._n_attached += 1
        self._engines[engine] = state
        engine.add_tick_hook(self._on_tick)
        self._current = weakref.ref(engine)

    def _state(self, engine) -> "_EngineState | None":
        return self._engines.get(engine)

    # -- notes from instrumented call sites ----------------------------------
    def note_event(self, kind: str, **fields) -> None:
        """Emit an ad-hoc event record onto the stream.

        Used by the fault injector (window begin/end) and the policy
        circuit breaker (state transitions) so degradation episodes are
        visible in ``repro obs watch`` next to drift and SLO alerts.
        """
        if self._closed:
            return
        self.exporter.emit({"t": "event", "kind": kind, **fields})

    def note_decision(
        self, policy: str, mode: str, kind: str, node: str | None = None
    ) -> None:
        """Count one placement decision into the current tick record.

        ``node`` is accepted for fleet call sites; the per-tick decision
        mix stays keyed by policy/mode (per-node decision counts live in
        the node-labeled ``orchestrator_decisions_total`` counter).
        """
        per_policy = self._tick_decisions.setdefault(policy, {})
        per_policy[mode] = per_policy.get(mode, 0) + 1

    def note_pool(self, **fields) -> None:
        """Emit one rack-pool arbitration record onto the stream.

        Called by :class:`repro.cluster.fleet.ClusterFleet` on fleet
        ticks where the arbiter throttled at least one lane; carries the
        regime, the throttled node set, per-node capacity factors and
        the aggregate bandwidth utilization.
        """
        if self._closed:
            return
        self.exporter.emit({"t": "pool", **fields})

    def note_state_forecast(
        self, s_hat: np.ndarray, horizon_s: float
    ) -> None:
        """Register one Ŝ forecast for joining once its horizon elapses.

        The forecast is attributed to the engine that most recently
        ticked (or attached) — the one whose Watcher window produced it.
        """
        engine = self._current()
        if engine is None:
            return
        state = self._state(engine)
        if state is None:
            return
        emit_time = engine.now
        state.forecasts.append(
            (emit_time, emit_time + horizon_s, np.asarray(s_hat, float).copy())
        )

    # -- per-tick pipeline ---------------------------------------------------
    def _on_tick(self, engine) -> None:
        state = self._state(engine)
        if state is None or self._closed:
            return
        self._current = weakref.ref(engine)
        self.clock += engine.dt
        self.ticks += 1
        if not self._fleet_seen and getattr(engine, "node_label", None):
            self._fleet_seen = True
        self._join_forecasts(engine, state)
        self._drain_audit(engine)
        self._score_slo(engine, state)
        alerts = self.slo.advance(self.clock)
        for node_slo in self._node_slo.values():
            alerts.extend(node_slo.advance(self.clock))
        for alert in alerts:
            self.exporter.emit(
                {"t": "event", "kind": "slo_alert", "sim": engine.now, **alert}
            )
        self._emit_tick(engine, state)
        if self.ticks % _PROFILE_EVERY_TICKS == 0:
            self._emit_profile()

    def _emit_profile(self) -> None:
        """Stream the phase table accumulated so far (when phases are on)."""
        acct = accounting()
        if acct is not None:
            self.exporter.emit(
                {"t": "profile", "clock": self.clock, "phases": acct.snapshot()}
            )

    def _join_forecasts(self, engine, state: _EngineState) -> None:
        """Feed matured Ŝ forecasts to the ``system_state`` drift stream.

        The Watcher mirrors each tick's sample *after* tick hooks run,
        so a forecast due at ``due`` is joined on the first tick where
        the Watcher's coverage (``now - dt``) reaches ``due`` — the
        trailing horizon window then spans exactly
        ``(emit, emit + horizon]``, the system-state model's target
        definition.
        """
        if not state.forecasts:
            return
        covered = engine.now - engine.dt
        remaining = []
        for emit_time, due, s_hat in state.forecasts:
            if covered < due - 1e-9:
                remaining.append((emit_time, due, s_hat))
                continue
            horizon = due - emit_time
            realized = state.watcher.horizon_mean(horizon)
            error = float(
                np.mean(np.abs(s_hat - realized))
                / (np.mean(np.abs(realized)) + _REL_EPS)
            )
            self.drift.observe(
                "system_state", error, sim_time=engine.now, clock=self.clock
            )
            node = getattr(engine, "node_label", None)
            if node is not None:
                # Fleet runs additionally track drift per node, so one
                # node's degrading forecasts stand out from the rack.
                self.drift.observe(
                    f"system_state@{node}", error,
                    sim_time=engine.now, clock=self.clock,
                )
        state.forecasts = remaining

    def _drain_audit(self, engine) -> None:
        """Feed newly joined decision outcomes to the drift streams."""
        records = runtime.audit().records
        if self._audit_seen < len(records):
            self._audit_pending.extend(records[self._audit_seen :])
            self._audit_seen = len(records)
            if len(self._audit_pending) > self._max_pending:
                del self._audit_pending[: -self._max_pending]
        if not self._audit_pending:
            return
        still_pending = []
        for record in self._audit_pending:
            if not record.joined:
                still_pending.append(record)
                continue
            error = record.prediction_error
            if error is None:
                continue
            actual = record.outcome["performance"]
            relative = abs(error) / (abs(actual) + _REL_EPS)
            self.drift.observe(
                record.kind, relative, sim_time=engine.now, clock=self.clock
            )
            if self._fleet_seen:
                self.drift.observe(
                    f"{record.kind}@{record.node}", relative,
                    sim_time=engine.now, clock=self.clock,
                )
        self._audit_pending = still_pending

    def _score_slo(self, engine, state: _EngineState) -> None:
        """Classify newly finished LC deployments against their QoS.

        Fleet engines (``node_label`` set) additionally score against a
        per-node :class:`SloEngine` (the ``slo_node_*`` families) and
        emit one ``finish`` stream record per completion — the raw
        material for ``repro obs report --fleet``'s per-node burn table.
        """
        records = engine.trace.records
        node = getattr(engine, "node_label", None)
        node_slo = None
        if node is not None:
            node_slo = self._node_slo.get(node)
            if node_slo is None:
                node_slo = self._node_slo[node] = SloEngine(
                    node=node, **self._slo_kwargs
                )
        for record in records[state.records_seen :]:
            violated = None
            if record.kind.value == "lc":
                violated = self.slo.record(
                    record.name, record.p99_ms, self.clock
                )
                if node_slo is not None:
                    node_violated = node_slo.record(
                        record.name, record.p99_ms, self.clock
                    )
                    if violated is None:
                        violated = node_violated
            if node is not None:
                p99 = record.p99_ms
                self.exporter.emit(
                    {
                        "t": "finish",
                        "node": node,
                        "clock": round(self.clock, 6),
                        "app": record.name,
                        "kind": record.kind.value,
                        "mode": record.mode.value,
                        "p99_ms": (
                            round(p99, 6) if np.isfinite(p99) else None
                        ),
                        "violated": violated,
                    }
                )
        state.records_seen = len(records)

    def _emit_tick(self, engine, state: _EngineState) -> None:
        node = getattr(engine, "node_label", None)
        record = {
            "t": "tick",
            "n": self.ticks,
            "clock": round(self.clock, 6),
            "engine": state.index,
            "sim": round(engine.now, 6),
            "wall": round(time.perf_counter() - self._wall_epoch, 6),
            "running": len(engine.running),
        }
        if node is not None:
            record["node"] = node
        metrics = runtime.metrics()
        family = metrics.get("engine_link_utilization")
        if family is not None:
            # The family is node-labeled; standalone engines write n0.
            record["link_util"] = round(
                family.labels(node=node or "n0").snapshot(), 6
            )
        regimes = self._regime_deltas(metrics)
        if regimes:
            record["regimes"] = regimes
        if self._tick_decisions:
            record["decisions"] = self._tick_decisions
            self._tick_decisions = {}
        drift = self.drift.snapshot()
        if drift:
            record["drift"] = drift
        slo = self.slo.snapshot(self.clock)
        if slo:
            record["slo"] = slo
        if self._node_slo:
            record["fleet_slo"] = self._fleet_burn_rollup()
        self.exporter.emit(record)

    def _fleet_burn_rollup(self) -> dict:
        """Worst-node / weighted fleet burn; refreshes the fleet gauges."""
        from repro.obs.fleet.rollup import fleet_burn_rollup

        rollup = fleet_burn_rollup(
            {
                node: slo.snapshot(self.clock)
                for node, slo in self._node_slo.items()
            }
        )
        gauge = runtime.metrics().gauge(
            "slo_fleet_burn_rate",
            "Fleet burn-rate rollup (worst node / population-weighted)",
            labels=("agg", "window"),
        )
        for window, entry in rollup["worst"].items():
            gauge.labels(agg="worst", window=f"{window}s").set(entry["burn"])
        for window, rate in rollup["weighted"].items():
            gauge.labels(agg="weighted", window=f"{window}s").set(rate)
        return rollup

    def _regime_deltas(self, metrics) -> dict[str, int]:
        """Per-tick link-resolve counts by saturation regime."""
        family = metrics.get("link_resolves_total")
        if family is None:
            return {}
        deltas = {}
        for key, child in family.children():
            value = child.snapshot()
            delta = value - self._last_regimes.get(key, 0.0)
            self._last_regimes[key] = value
            if delta > 0:
                deltas[key[0] if key else "all"] = int(delta)
        return deltas

    # -- alarms --------------------------------------------------------------
    def _handle_drift_alarm(self, alarm: DriftAlarm) -> None:
        self.exporter.emit({"t": "event", "kind": "drift", **alarm.to_dict()})
        self.exporter.flush()
        if self.on_drift is not None:
            self.on_drift(alarm)

    # -- lifecycle -----------------------------------------------------------
    def flush(self) -> None:
        self.exporter.flush()

    def artifact_paths(self) -> dict[str, Path]:
        paths = {self.exporter.path.name: self.exporter.path}
        if self.exporter.openmetrics_path is not None:
            paths[self.exporter.openmetrics_path.name] = (
                self.exporter.openmetrics_path
            )
        return paths

    def close(self, reason: str | None = None) -> None:
        """Emit the end marker and release resources (idempotent).

        ``reason`` annotates the end record (e.g. ``"daemon draining"``)
        so stream consumers such as ``repro obs watch`` can tell a
        graceful drain apart from an ordinary run completion.
        """
        if self._closed:
            return
        self._closed = True
        self._emit_profile()
        end = {
            "t": "end",
            "ticks": self.ticks,
            "clock": round(self.clock, 6),
            "drift": self.drift.snapshot(),
            "slo": self.slo.snapshot(self.clock),
            "alarms": len(self.drift.alarms),
            "slo_alerts": len(self.slo.alerts),
        }
        if self._node_slo:
            end["fleet_slo"] = self._fleet_burn_rollup()
        if reason is not None:
            end["reason"] = reason
        self.exporter.emit(end)
        self.exporter.close()
