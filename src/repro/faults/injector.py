"""Schedule-driven fault injection over a running cluster engine.

A :class:`FaultInjector` binds one :class:`~repro.faults.plan.FaultPlan`
to one :class:`~repro.cluster.engine.ClusterEngine` for the duration of
a scenario replay:

* **link faults** — at each tick the injector writes the active
  window's capacity and latency factors into the engine's
  ``link_fault``, which the engine composes with the pool's throttle
  on every resolve (an outage leaves only the FPGA back-pressure drain
  trickle); during an outage the engine's ``remote_blocked`` flag
  re-queues new remote deployments instead of placing them;
* **telemetry faults** — a tick hook corrupts the counter row the
  engine just sampled (whole-row NaN dropouts, per-metric NaN
  corruption), modelling a Watcher that loses or garbles samples; the
  downstream feature pipeline imputes the gaps;
* **predictor faults** — a chaos shim installed on the Predictor
  injects NaN/inf estimates and inference latency (surfacing as
  :class:`~repro.faults.errors.InferenceTimeout` against the policy's
  decision deadline).

All randomness flows from one RNG derived from ``(plan.seed,
scenario_seed)``, and the RNG is only consulted while a fault window is
active — a plan with no active windows leaves the run bit-identical to
an uninjected one (the inertness property the regression tests pin).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.faults.checkpoint import require_fields
from repro.faults.errors import InferenceTimeout
from repro.faults.plan import (
    FLEET_KINDS,
    LINK_KINDS,
    FaultPlan,
    FaultSpec,
)

__all__ = ["FaultInjector", "PredictorChaos"]


def _link_fault(spec: FaultSpec | None) -> tuple[float, float]:
    """The ``(capacity, latency)`` factors a link window applies; a
    healthy link's when ``spec`` is ``None``."""
    if spec is None:
        return (1.0, 1.0)
    capacity = (
        0.0 if spec.kind == "link_outage"
        else float(spec.param("capacity_factor", 1.0))
    )
    return (capacity, float(spec.param("latency_factor", 1.0)))


class PredictorChaos:
    """Inference-path shim the injector installs on the Predictor."""

    def __init__(self, injector: "FaultInjector") -> None:
        self._injector = injector

    def before_inference(self, entry: str, deadline_s: float | None) -> None:
        """Apply an active delay fault; may raise :class:`InferenceTimeout`."""
        spec = self._injector.active_fault(("predictor_delay",))
        if spec is None:
            return
        latency_s = float(spec.param("latency_s"))
        self._injector.count("predictor_injected_delays_total")
        if deadline_s is not None and latency_s > deadline_s:
            self._injector.count("predictor_injected_timeouts_total")
            raise InferenceTimeout(latency_s=latency_s, deadline_s=deadline_s)

    def corrupt_output(self, entry: str, values: np.ndarray) -> np.ndarray:
        """Replace estimates with NaN/inf while a corruption fault is active."""
        spec = self._injector.active_fault(("predictor_nan",))
        if spec is None:
            return values
        if self._injector.rng.random() >= float(spec.param("probability", 1.0)):
            return values
        poison = np.inf if spec.param("value", "nan") == "inf" else np.nan
        corrupted = np.full_like(np.asarray(values, dtype=np.float64), poison)
        self._injector.count(
            "predictor_injected_corruptions_total", labels={"entry": entry}
        )
        return corrupted


class FaultInjector:
    """Drives one fault plan against one engine via its tick hooks."""

    def __init__(self, plan: FaultPlan, scenario_seed: int = 0) -> None:
        self.plan = plan
        self.scenario_seed = scenario_seed
        self.rng = np.random.default_rng([plan.seed, scenario_seed])
        self.engine = None
        self._predictor = None
        self._active: set[int] = set()
        #: Counts for the run summary: {counter name: value}.
        self.injected = {
            "telemetry_dropped_samples": 0,
            "telemetry_corrupted_values": 0,
        }

    # -- wiring --------------------------------------------------------------
    def attach(self, engine, predictor=None) -> None:
        """Install the tick hook and predictor chaos."""
        if self.engine is not None:
            raise RuntimeError("injector is already attached to an engine")
        self.engine = engine
        engine.add_tick_hook(self._on_tick)
        if predictor is not None:
            self._predictor = predictor
            predictor.chaos = PredictorChaos(self)
        # Evaluate windows at the engine's clock so a fault starting there
        # applies from the very first tick (and the engine's link inputs
        # are correct pre-tick).
        self._update_windows()

    def detach(self) -> None:
        """Undo every hook; safe to call twice."""
        engine, self.engine = self.engine, None
        if engine is None:
            return
        engine.remove_tick_hook(self._on_tick)
        engine.remote_blocked = False
        engine.link_fault = _link_fault(None)
        if self._predictor is not None:
            self._predictor.chaos = None
            self._predictor = None

    # -- per-tick ------------------------------------------------------------
    def _on_tick(self, engine) -> None:
        self._update_windows()
        self._inject_telemetry(engine)

    def now(self) -> float:
        return self.engine.now if self.engine is not None else 0.0

    def active_fault(self, kinds) -> FaultSpec | None:
        return self.plan.active(kinds, self.now())

    def _update_windows(self) -> None:
        """Track window transitions; emit begin/end events; write the
        engine's link inputs.

        The engine's clock moves only inside its tick, and this runs at
        the end of every tick, so between ticks the engine's link inputs
        are those of the windows active at its clock.
        """
        now = self.now()
        # Fleet-side kinds (node crashes, pool device loss) belong to the
        # FleetHealthManager — tracking them here would emit duplicate
        # transition events from every node's injector.
        current = {
            i
            for i, spec in enumerate(self.plan.faults)
            if spec.kind not in FLEET_KINDS and spec.active(now)
        }
        for index in sorted(current - self._active):
            self._note_transition(self.plan.faults[index], "begin", now)
        for index in sorted(self._active - current):
            self._note_transition(self.plan.faults[index], "end", now)
        self._active = current
        if self.engine is not None:
            # An outage cuts the link whatever else is active: an
            # overlapping degrade neither unblocks nor revives it.
            outage = self.plan.active(("link_outage",), now)
            self.engine.remote_blocked = outage is not None
            self.engine.link_fault = _link_fault(
                outage or self.plan.active(LINK_KINDS, now)
            )
        if obs.enabled():
            obs.metrics().gauge(
                "faults_active", "Fault windows currently active"
            ).set(float(len(current)))

    def _note_transition(self, spec: FaultSpec, phase: str, now: float) -> None:
        if obs.enabled():
            obs.metrics().counter(
                "fault_transitions_total",
                "Fault windows opened/closed by kind",
                labels=("kind", "phase"),
            ).labels(kind=spec.kind, phase=phase).inc()
        live = obs.live_session()
        if live is not None:
            live.note_event(
                "fault", fault=spec.kind, phase=phase, sim=now,
                start_s=spec.start_s, end_s=spec.end_s,
            )

    def _inject_telemetry(self, engine) -> None:
        """Corrupt the counter row the engine appended this tick."""
        if len(engine.trace) == 0:
            return
        row = engine.trace.newest_row()
        dropout = self.active_fault(("telemetry_dropout",))
        if dropout is not None and (
            self.rng.random() < float(dropout.param("probability", 1.0))
        ):
            row[:] = np.nan
            self.injected["telemetry_dropped_samples"] += 1
            self.count("telemetry_dropped_samples_total")
            return  # the whole sample is gone; nothing left to corrupt
        corrupt = self.active_fault(("telemetry_corrupt",))
        if corrupt is not None:
            mask = self.rng.random(row.shape[0]) < float(
                corrupt.param("probability", 1.0)
            )
            if mask.any():
                row[mask] = np.nan
                n = int(mask.sum())
                self.injected["telemetry_corrupted_values"] += n
                self.count("telemetry_corrupted_values_total", n)

    # -- obs helpers ---------------------------------------------------------
    def count(self, name: str, n: int = 1, labels: dict | None = None) -> None:
        if not obs.enabled():
            return
        counter = obs.metrics().counter(
            name, f"Injected fault effects ({name})",
            labels=tuple(labels) if labels else (),
        )
        if labels:
            counter = counter.labels(**labels)
        counter.inc(n)

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "plan": self.plan.to_dict(),
            "scenario_seed": self.scenario_seed,
            "rng_state": self.rng.bit_generator.state,
            "active": sorted(self._active),
            "injected": dict(self.injected),
        }

    def load_state_dict(self, data: dict) -> None:
        require_fields(data, "injector", ("rng_state", "active", "injected"))
        self.rng.bit_generator.state = data["rng_state"]
        self._active = set(data["active"])
        self.injected.update(data["injected"])
