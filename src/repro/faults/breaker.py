"""Circuit breaker for the prediction-driven decision path.

Classic three-state breaker driven by the *simulated* clock: the
AdriasPolicy records a failure for every predictor timeout or corrupt
estimate, and after ``failure_threshold`` consecutive failures the
circuit opens — decisions flow through the fallback chain without
touching the predictor.  After ``cooldown_s`` simulated seconds the
breaker half-opens and lets a single probe inference through; a
successful probe re-closes the circuit, a failed one re-opens it (and
restarts the cooldown).

State is exported as ``policy_circuit_state`` (0 = closed, 1 = open,
2 = half-open), labeled by policy *and* node — fleet runs stamp the
label of the node whose decision drove the transition, so per-node
breaker arcs survive the fleet rollup — and every transition is counted
and pushed onto the live event stream, so an outage's open → half-open
→ closed arc is visible in both the metrics and the ``repro obs watch``
dashboard.
"""

from __future__ import annotations

import enum

from repro import obs
from repro.faults.checkpoint import require_fields

__all__ = ["CircuitState", "CircuitBreaker"]


class CircuitState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: Gauge encoding of the states (documented in DESIGN.md §10).
_STATE_GAUGE = {
    CircuitState.CLOSED: 0.0,
    CircuitState.OPEN: 1.0,
    CircuitState.HALF_OPEN: 2.0,
}


class CircuitBreaker:
    """Consecutive-failure breaker on a simulated clock."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 120.0,
        name: str = "adrias",
        node: str | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.name = name
        #: Node label stamped on metric exports; callers on fleet paths
        #: (e.g. AdriasPolicy.decide) refresh it per decision so a shared
        #: breaker attributes each transition to the node that drove it.
        self.node = node
        self.state = CircuitState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        #: (time, old state, new state) transition history.
        self.transitions: list[tuple[float, str, str]] = []

    # -- queries -------------------------------------------------------------
    def allow(self, now: float) -> bool:
        """Whether the predictor may be consulted at time ``now``.

        While open, flips to half-open (allowing one probe) once the
        cooldown has elapsed.
        """
        if self.state is CircuitState.OPEN:
            assert self.opened_at is not None
            if now - self.opened_at >= self.cooldown_s:
                self._transition(CircuitState.HALF_OPEN, now)
        return self.state is not CircuitState.OPEN

    # -- updates -------------------------------------------------------------
    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state is CircuitState.HALF_OPEN:
            self.opened_at = None
            self._transition(CircuitState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state is CircuitState.HALF_OPEN:
            # The probe failed: back to open, restart the cooldown.
            self.opened_at = now
            self._transition(CircuitState.OPEN, now)
        elif (
            self.state is CircuitState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.opened_at = now
            self._transition(CircuitState.OPEN, now)

    def _transition(self, new: CircuitState, now: float) -> None:
        old, self.state = self.state, new
        self.transitions.append((now, old.value, new.value))
        node = self.node or "n0"
        if obs.enabled():
            metrics = obs.metrics()
            metrics.gauge(
                "policy_circuit_state",
                "Decision-path circuit state (0 closed, 1 open, 2 half-open)",
                labels=("policy", "node"),
            ).labels(policy=self.name, node=node).set(_STATE_GAUGE[new])
            metrics.counter(
                "policy_circuit_transitions_total",
                "Circuit-breaker state transitions",
                labels=("policy", "to"),
            ).labels(policy=self.name, to=new.value).inc()
        live = obs.live_session()
        if live is not None:
            live.note_event(
                "circuit", policy=self.name, node=node, sim=now,
                transition=f"{old.value}->{new.value}",
            )

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "opened_at": self.opened_at,
            "transitions": [list(t) for t in self.transitions],
        }

    def load_state_dict(self, data: dict) -> None:
        require_fields(data, "breaker", (
            "state", "consecutive_failures", "opened_at", "transitions",
        ))
        self.state = CircuitState(data["state"])
        self.consecutive_failures = int(data["consecutive_failures"])
        self.opened_at = data["opened_at"]
        self.transitions = [tuple(t) for t in data["transitions"]]
