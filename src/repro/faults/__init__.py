"""repro.faults — deterministic fault injection and graceful degradation.

The subsystem has two halves:

* **Injection** — a seeded, schedule-driven :class:`FaultPlan` (JSON in,
  JSON out) drives a :class:`FaultInjector` attached to a scenario
  engine through its tick hooks: remote-link degradation and outage
  windows, Watcher sample dropouts and NaN-corrupted counters, and
  predictor NaN/inf outputs and inference delays.
* **Degradation** — the orchestration stack is hardened to survive all
  of it: the AdriasPolicy runs a decision deadline plus a
  :class:`CircuitBreaker` over a fallback chain, the feature pipeline
  imputes telemetry gaps, the engine re-queues remote deployments
  during outages, and replays, fleets and the daemon checkpoint/resume
  crash-safely through one codec (``repro.faults.checkpoint``).

Arm a plan process-wide with :func:`activate` /
:func:`active_plan`; ``run_scenario`` attaches a fresh injector per
policy-driven replay while a plan is armed and stays bit-identical when
none is.  ``repro.faults.checkpoint`` imports the cluster layer only
inside its functions, so every stateful part can import its field
check.
"""

from repro.faults.breaker import CircuitBreaker, CircuitState
from repro.faults.errors import (
    CheckpointError,
    CorruptPrediction,
    FaultPlanError,
    InferenceFault,
    InferenceTimeout,
    RetrainTimeout,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_KINDS, TRAINER_KINDS, FaultPlan, FaultSpec
from repro.faults.runtime import activate, active_plan, current_plan, deactivate
from repro.faults.training import TrainingChaos

__all__ = [
    "FAULT_KINDS",
    "TRAINER_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultPlanError",
    "FaultInjector",
    "CircuitBreaker",
    "CircuitState",
    "InferenceFault",
    "InferenceTimeout",
    "CorruptPrediction",
    "CheckpointError",
    "RetrainTimeout",
    "TrainingChaos",
    "activate",
    "deactivate",
    "current_plan",
    "active_plan",
]
