"""Scheduling policies (§V-C and the §VI-B baselines).

The Adrias policy decides between local and remote memory from the
Predictor's performance estimates:

* best-effort: ``local if t̂_local < β · t̂_remote else remote`` where β
  is the slack parameter (maximum performance loss margin);
* latency-critical: ``remote if p̂99_remote <= QoS else local``.

Baselines: Random, Round-Robin, All-Local and All-Remote.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro import obs
from repro.cluster.engine import ClusterEngine
from repro.faults.breaker import CircuitBreaker
from repro.faults.checkpoint import require_fields
from repro.faults.errors import CorruptPrediction, InferenceFault
from repro.models.predictor import Predictor
from repro.obs.perf.accounting import accounting as perf_accounting
from repro.workloads.base import MemoryMode, WorkloadKind, WorkloadProfile

__all__ = [
    "Policy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "AllLocalPolicy",
    "AllRemotePolicy",
    "StaticThresholdPolicy",
    "InterferenceThresholdPolicy",
    "AdriasPolicy",
]


class Policy(Protocol):
    """A scheduling policy decides the memory mode of each arrival."""

    name: str

    def decide(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        ...  # pragma: no cover - protocol signature

    def __call__(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        ...  # pragma: no cover - protocol signature


class _BasePolicy:
    name = "base"

    def decide(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        raise NotImplementedError

    def __call__(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        acct = perf_accounting()
        if acct is not None:
            # The decision's own time: its predictor laps count once.
            t0, inner = acct.clock(), acct.recorded
            mode = self.decide(profile, engine)
            acct.lap("policy.decide", t0, nested=acct.recorded - inner)
        else:
            mode = self.decide(profile, engine)
        if obs.enabled():
            self._observe(profile, engine, mode)
        return mode

    # -- observability -----------------------------------------------------
    def _audit_detail(self) -> dict:
        """Extra audit fields for the decision just made (consumed once).

        Prediction-driven policies stash their per-mode estimates and
        margins here from :meth:`decide`; the default is empty.
        """
        return {}

    def _observe(
        self, profile: WorkloadProfile, engine: ClusterEngine, mode: MemoryMode
    ) -> None:
        node = getattr(engine, "node_label", None) or "n0"
        obs.metrics().counter(
            "orchestrator_decisions_total",
            "Placement decisions by policy, chosen mode and workload kind",
            labels=("policy", "mode", "kind", "node"),
        ).labels(
            policy=self.name,
            mode=mode.value,
            kind=profile.kind.value,
            node=node,
        ).inc()
        live = obs.live_session()
        if live is not None:
            live.note_decision(
                self.name, mode.value, profile.kind.value, node=node
            )
        if profile.kind is WorkloadKind.INTERFERENCE:
            return  # the paper's policies only govern BE/LC placement
        obs.audit().record(
            engine=engine,
            policy=self.name,
            app_name=profile.name,
            kind=profile.kind.value,
            chosen_mode=mode.value,
            **self._audit_detail(),
        )


class RandomPolicy(_BasePolicy):
    """Coin-flip placement."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def decide(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        return MemoryMode.REMOTE if self._rng.random() < 0.5 else MemoryMode.LOCAL

    def state_dict(self) -> dict:
        return {"rng_state": self._rng.bit_generator.state}

    def load_state_dict(self, data: dict) -> None:
        require_fields(data, "policy", ("rng_state",))
        self._rng.bit_generator.state = data["rng_state"]


class RoundRobinPolicy(_BasePolicy):
    """Alternate strictly between the two pools."""

    name = "round-robin"

    def __init__(self) -> None:
        self._last = MemoryMode.REMOTE

    def decide(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        self._last = self._last.other
        return self._last

    def state_dict(self) -> dict:
        return {"last": self._last.value}

    def load_state_dict(self, data: dict) -> None:
        require_fields(data, "policy", ("last",))
        self._last = MemoryMode(data["last"])


class AllLocalPolicy(_BasePolicy):
    """Conventional scheduling: everything in local DRAM."""

    name = "all-local"

    def decide(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        return MemoryMode.LOCAL


class AllRemotePolicy(_BasePolicy):
    """Stress baseline: everything on disaggregated memory."""

    name = "all-remote"

    def decide(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        return MemoryMode.REMOTE


class StaticThresholdPolicy(_BasePolicy):
    """Interference-*blind* oracle-profile heuristic.

    Offloads an application iff its *isolated* remote/local ratio is
    below ``threshold`` — i.e. a hand-tuned rule with perfect knowledge
    of the Fig. 3 characterization but no awareness of the current
    system state.  Comparing it against Adrias isolates what the
    interference-aware prediction pipeline buys beyond static profiling:
    the static rule keeps offloading mild applications even when the
    channel is already saturated.
    """

    def __init__(self, threshold: float = 1.3) -> None:
        if threshold < 1.0:
            raise ValueError("threshold must be >= 1 (an isolated ratio)")
        self.threshold = threshold
        self.name = f"static(t={threshold:g})"

    def decide(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        if profile.kind is WorkloadKind.INTERFERENCE:
            return MemoryMode.LOCAL
        self._detail = {
            "margin": self.threshold - profile.remote_slowdown,
            "reason": "static-threshold",
        }
        if profile.remote_slowdown <= self.threshold:
            return MemoryMode.REMOTE
        return MemoryMode.LOCAL

    def _audit_detail(self) -> dict:
        return self.__dict__.pop("_detail", {})


class InterferenceThresholdPolicy(_BasePolicy):
    """Interference-*aware* but prediction-free heuristic.

    Reads the *measured* channel state instead of a forecast: offload
    only while the link's current utilization leaves headroom.  This is
    the first rung of the AdriasPolicy's degradation ladder — when the
    prediction pipeline is unavailable, the orchestrator keeps reacting
    to live interference rather than going interference-blind.
    """

    def __init__(self, max_link_utilization: float = 0.7) -> None:
        if not 0 < max_link_utilization <= 1:
            raise ValueError("max_link_utilization must be in (0, 1]")
        self.max_link_utilization = max_link_utilization
        self.name = f"interference(u<{max_link_utilization:g})"

    def decide(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        if profile.kind is WorkloadKind.INTERFERENCE:
            return MemoryMode.LOCAL
        utilization = engine.current_pressure().link.utilization
        self._detail = {
            "margin": self.max_link_utilization - utilization,
            "reason": "interference-threshold",
        }
        if utilization < self.max_link_utilization:
            return MemoryMode.REMOTE
        return MemoryMode.LOCAL

    def _audit_detail(self) -> dict:
        return self.__dict__.pop("_detail", {})


class AdriasPolicy(_BasePolicy):
    """Prediction-driven interference-aware placement (§V-C).

    Parameters
    ----------
    predictor:
        Trained :class:`repro.models.Predictor`.
    beta:
        BE slack in (0, 1]: the fraction of remote performance that
        local performance must beat for the application to stay local.
        β = 1 keeps everything local (modulo prediction error); lower
        values offload progressively more.
    qos_p99_ms:
        QoS constraint per LC application name (99th percentile, ms).
        Applications without an entry use ``default_qos_ms``.
    decision_deadline_s:
        Per-decision inference budget.  Injected (or real) inference
        latency beyond it surfaces as a timeout, which counts against
        the circuit breaker like any other predictor failure.
    failure_threshold / cooldown_s:
        Circuit-breaker tuning: the circuit opens after
        ``failure_threshold`` *consecutive* predictor failures (timeouts
        or non-finite estimates) and half-opens for a probe after
        ``cooldown_s`` simulated seconds.
    fallback:
        Degradation ladder consulted (in order) whenever the predictor
        is unavailable — circuit open, or the current call failed.  The
        default is the paper-motivated chain *interference-threshold
        heuristic → static all-local*; all-local is also the terminal
        answer when every rung fails.
    """

    def __init__(
        self,
        predictor: Predictor,
        beta: float = 0.8,
        qos_p99_ms: dict[str, float] | None = None,
        default_qos_ms: float = float("inf"),
        decision_deadline_s: float = 1.0,
        failure_threshold: int = 3,
        cooldown_s: float = 120.0,
        fallback: Sequence[Policy] | None = None,
    ) -> None:
        if not 0 < beta <= 1:
            raise ValueError("beta must be in (0, 1]")
        if default_qos_ms <= 0:
            raise ValueError("default_qos_ms must be positive")
        if decision_deadline_s <= 0:
            raise ValueError("decision_deadline_s must be positive")
        self.predictor = predictor
        self.beta = beta
        self.qos_p99_ms = dict(qos_p99_ms) if qos_p99_ms else {}
        self.default_qos_ms = default_qos_ms
        self.decision_deadline_s = decision_deadline_s
        self.name = f"adrias(b={beta:g})"
        self.breaker = CircuitBreaker(
            failure_threshold=failure_threshold,
            cooldown_s=cooldown_s,
            name=self.name,
        )
        self.fallback: tuple[Policy, ...] = (
            tuple(fallback)
            if fallback is not None
            else (InterferenceThresholdPolicy(), AllLocalPolicy())
        )
        #: Names whose signatures this policy captured (checkpoint state).
        self._captured: set[str] = set()
        #: Decisions answered by the fallback ladder (obs-independent).
        self.degraded_decisions = 0

    def _history(self, engine: ClusterEngine) -> np.ndarray:
        return engine.trace.window(
            engine.now, self.predictor.config.history_s
        )

    def decide(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        # Interference trashers carry no performance metric; the paper's
        # policy only concerns BE/LC applications.  Keep them local so
        # they do not pollute the link on their own.
        if profile.kind is WorkloadKind.INTERFERENCE:
            return MemoryMode.LOCAL
        # Attribute breaker transitions to the node whose decision drives
        # them (fleet runs share one policy — and breaker — across nodes).
        self.breaker.node = getattr(engine, "node_label", None)
        if not self.predictor.has_signature(profile):
            self.predictor.signatures.capture(profile)
            if profile.name not in self._captured:
                # First encounter: schedule on remote and capture (§V-C).
                self._captured.add(profile.name)
                self._detail = {"reason": "signature-capture"}
                return MemoryMode.REMOTE
            # Captured before the checkpoint this run resumed from, by a
            # predictor that did not survive the restart: capture is a
            # deterministic isolated run, so the signature is the same
            # and the decision proceeds as in the uninterrupted run.
        if not self.breaker.allow(engine.now):
            return self._degraded_decide(profile, engine, "circuit-open")
        try:
            estimates = self._predict(profile, engine)
        except InferenceFault as fault:
            self.breaker.record_failure(engine.now)
            return self._degraded_decide(
                profile, engine, type(fault).__name__
            )
        self.breaker.record_success(engine.now)
        predicted = {mode.value: float(v) for mode, v in estimates.items()}
        if profile.kind is WorkloadKind.BEST_EFFORT:
            # Slack > 0 ⇒ local beats β-discounted remote ⇒ stay local.
            slack = (
                self.beta * estimates[MemoryMode.REMOTE]
                - estimates[MemoryMode.LOCAL]
            )
            self._detail = {
                "predicted": predicted,
                "margin": slack,
                "beta": self.beta,
                "reason": "beta-slack",
            }
            if estimates[MemoryMode.LOCAL] < self.beta * estimates[MemoryMode.REMOTE]:
                return MemoryMode.LOCAL
            return MemoryMode.REMOTE
        qos = self.qos_p99_ms.get(profile.name, self.default_qos_ms)
        # Slack > 0 ⇒ predicted remote p99 fits within the QoS budget.
        self._detail = {
            "predicted": predicted,
            "margin": qos - estimates[MemoryMode.REMOTE],
            "qos_ms": qos,
            "reason": "qos",
        }
        if estimates[MemoryMode.REMOTE] <= qos:
            return MemoryMode.REMOTE
        return MemoryMode.LOCAL

    # -- degradation ---------------------------------------------------------
    def _predict(
        self, profile: WorkloadProfile, engine: ClusterEngine
    ) -> dict[MemoryMode, float]:
        """One guarded inference; raises :class:`InferenceFault` on failure."""
        live = obs.live_session()
        if live is not None:
            live.note_window(engine)  # the Ŝ forecast joins this engine
        estimates = self.predictor.predict_both_modes(
            profile, self._history(engine), deadline_s=self.decision_deadline_s
        )
        if not all(np.isfinite(v) for v in estimates.values()):
            raise CorruptPrediction(
                f"non-finite estimates for {profile.name}: "
                f"{ {m.value: v for m, v in estimates.items()} }"
            )
        return estimates

    def _degraded_decide(
        self, profile: WorkloadProfile, engine: ClusterEngine, cause: str
    ) -> MemoryMode:
        """Walk the fallback ladder; all-local is the terminal answer."""
        for stage in self.fallback:
            try:
                mode = stage.decide(profile, engine)
            except Exception:
                continue  # this rung is unavailable too; keep degrading
            detail = (
                stage._audit_detail() if hasattr(stage, "_audit_detail") else {}
            )
            self._note_degraded(stage.name)
            self._detail = {
                **detail,
                "reason": f"fallback:{stage.name}",
                "cause": cause,
                "circuit": self.breaker.state.value,
            }
            return mode
        self._note_degraded("static-local")
        self._detail = {
            "reason": "fallback:static-local",
            "cause": cause,
            "circuit": self.breaker.state.value,
        }
        return MemoryMode.LOCAL

    def _note_degraded(self, stage: str) -> None:
        self.degraded_decisions += 1
        if obs.enabled():
            obs.metrics().counter(
                "policy_degraded_decisions_total",
                "Decisions answered by the fallback chain",
                labels=("policy", "stage"),
            ).labels(policy=self.name, stage=stage).inc()

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "breaker": self.breaker.state_dict(),
            "captured": sorted(self._captured),
        }

    def load_state_dict(self, data: dict) -> None:
        require_fields(data, "policy", ("breaker", "captured"))
        self.breaker.load_state_dict(data["breaker"])
        # A checkpointed name's signature is re-captured silently on its
        # next arrival if the resuming predictor lacks it (see decide).
        self._captured.update(data["captured"])

    def _audit_detail(self) -> dict:
        return self.__dict__.pop("_detail", {})
