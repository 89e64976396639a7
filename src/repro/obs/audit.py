"""Orchestrator decision audit log.

Every placement decision (any policy, not just Adrias) is recorded with
the candidate modes, the Predictor's per-mode performance estimates, the
β-slack or QoS margin that drove the choice, and the chosen mode.  When
the deployment later finishes, the engine's ``on_finish`` hook joins the
*actual* outcome back onto the decision row, so predicted-vs-actual
accuracy and drift are queryable after any replay — the missing feedback
loop the paper's offline/online split leaves implicit.

The join needs no cooperation from the scenario driver: the first
decision recorded against an engine chains that engine's ``on_finish``
(preserving any caller-installed hook) and keeps a per-engine pending
table keyed by ``(name, arrival_time)``.  Capacity fallbacks (deploys
that land on the other pool) still join — the actual mode is part of the
outcome and flagged as a fallback.  A row whose choice will not run (a
safety veto, or a plan a veto or downgrade overrode) is disarmed, so
only the row of what was actually placed waits for an outcome.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs is layered
    # below cluster; the engine type is only needed for annotations)
    from repro.cluster.engine import ClusterEngine

__all__ = ["DecisionRecord", "DecisionAuditLog", "NullAuditLog", "NULL_AUDIT"]

_PENDING_ATTR = "_obs_audit_pending"
_LOG_ATTR = "_obs_audit_log"


@dataclass
class DecisionRecord:
    """One placement decision, with its outcome joined post-hoc."""

    decision_id: int
    sim_time: float
    policy: str
    app_name: str
    kind: str
    chosen_mode: str
    candidate_modes: tuple[str, ...] = ("local", "remote")
    #: Predicted performance per candidate mode (runtime s for BE,
    #: p99 ms for LC); empty for prediction-free policies.
    predicted: dict[str, float] = field(default_factory=dict)
    #: Decision margin: BE slack = β·t̂_remote − t̂_local (positive ⇒
    #: local wins); LC slack = QoS − p̂99_remote (positive ⇒ offload OK).
    #: A safety override (``safety-veto``/``safety-downgrade`` row) has
    #: the tripped constraint's limit − measured value: negative, by how
    #: far the placement was past its limit; None for ``breaker_closed``,
    #: which has no limit.
    margin: float | None = None
    beta: float | None = None
    qos_ms: float | None = None
    reason: str = ""
    #: For degraded (fallback-ladder) decisions: the exception class or
    #: condition that sidelined the predictor, and the circuit state.
    cause: str | None = None
    circuit: str | None = None
    #: The fleet node that served the decision; single-node runs (and
    #: engines outside any fleet) default to ``n0``.
    node: str = "n0"
    outcome: dict | None = None

    # -- post-hoc queries ---------------------------------------------------
    @property
    def joined(self) -> bool:
        return self.outcome is not None

    @property
    def prediction_error(self) -> float | None:
        """Signed error (predicted − actual) for the mode that ran."""
        if not self.outcome:
            return None
        predicted = self.predicted.get(self.outcome["mode"])
        if predicted is None:
            return None
        actual = self.outcome["performance"]
        if actual is None or not math.isfinite(actual):
            return None
        return predicted - actual

    def to_dict(self) -> dict:
        return {
            "decision_id": self.decision_id,
            "sim_time": self.sim_time,
            "policy": self.policy,
            "app_name": self.app_name,
            "kind": self.kind,
            "candidate_modes": list(self.candidate_modes),
            "predicted": self.predicted,
            "margin": _json_safe(self.margin),
            "beta": self.beta,
            "qos_ms": _json_safe(self.qos_ms),
            "reason": self.reason,
            "cause": self.cause,
            "circuit": self.circuit,
            "node": self.node,
            "chosen_mode": self.chosen_mode,
            "outcome": self.outcome,
            "prediction_error": self.prediction_error,
        }


def _json_safe(value: float | None) -> float | str | None:
    if value is None:
        return None
    if math.isinf(value) or math.isnan(value):
        return repr(value)
    return value


class DecisionAuditLog:
    """Append-only decision log with outcome joining."""

    def __init__(self) -> None:
        self.records: list[DecisionRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    # -- recording -----------------------------------------------------------
    def record(
        self,
        *,
        engine: "ClusterEngine",
        policy: str,
        app_name: str,
        kind: str,
        chosen_mode: str,
        predicted: dict[str, float] | None = None,
        margin: float | None = None,
        beta: float | None = None,
        qos_ms: float | None = None,
        reason: str = "",
        cause: str | None = None,
        circuit: str | None = None,
        node: str | None = None,
    ) -> DecisionRecord:
        """Log one decision and arm its outcome join on ``engine``.

        ``node`` defaults to the engine's fleet label (``engine.
        node_label``) so fleet placements are attributed to their
        serving node without every call site knowing about fleets;
        engines outside a fleet record ``n0``.
        """
        record = DecisionRecord(
            decision_id=len(self.records),
            sim_time=engine.now,
            policy=policy,
            app_name=app_name,
            kind=kind,
            chosen_mode=chosen_mode,
            predicted=dict(predicted) if predicted else {},
            margin=margin,
            beta=beta,
            qos_ms=qos_ms,
            reason=reason,
            cause=cause,
            circuit=circuit,
            node=(
                node
                if node is not None
                else (getattr(engine, "node_label", None) or "n0")
            ),
        )
        self.records.append(record)
        self._attach(engine)
        pending: dict = getattr(engine, _PENDING_ATTR)
        pending.setdefault(self._key(app_name, engine.now), []).append(record)
        return record

    def disarm(self, engine: "ClusterEngine", record: DecisionRecord) -> None:
        """Withdraw ``record``'s outcome join on ``engine``: nothing it
        chose will finish there (a later decision overrode it, or it
        placed nothing).  A row not armed there is left alone."""
        pending: dict = getattr(engine, _PENDING_ATTR, {})
        key = self._key(record.app_name, record.sim_time)
        queue = pending.get(key, [])
        for index, armed in enumerate(queue):
            if armed is record:
                del queue[index]
                if not queue:
                    del pending[key]
                return

    @staticmethod
    def _key(name: str, time: float) -> tuple[str, float]:
        return (name, round(time, 6))

    def _attach(self, engine: "ClusterEngine") -> None:
        """Chain ``engine.on_finish`` once per (log, engine) pair."""
        if getattr(engine, _LOG_ATTR, None) is self:
            return
        setattr(engine, _LOG_ATTR, self)
        setattr(engine, _PENDING_ATTR, {})
        previous = engine.on_finish

        def on_finish(record) -> None:
            if previous is not None:
                previous(record)
            self._join(engine, record)

        engine.on_finish = on_finish

    def _join(self, engine: "ClusterEngine", deployment_record) -> None:
        pending: dict = getattr(engine, _PENDING_ATTR, {})
        # Outage-parked deployments start later than they were decided;
        # the decision row is keyed on the decision time.
        decided = getattr(deployment_record, "decided_s", None)
        key = self._key(
            deployment_record.name,
            decided if decided is not None else deployment_record.arrival_time,
        )
        queue = pending.get(key)
        if not queue:
            return  # deployment placed without a logged decision
        record = queue.pop(0)
        if not queue:
            del pending[key]
        actual_mode = deployment_record.mode.value
        performance = deployment_record.performance
        record.outcome = {
            "app_id": deployment_record.app_id,
            "mode": actual_mode,
            "fallback": actual_mode != record.chosen_mode,
            "runtime_s": deployment_record.runtime_s,
            "p99_ms": _json_safe(deployment_record.p99_ms),
            "performance": (
                performance if math.isfinite(performance) else None
            ),
            "finish_time": deployment_record.finish_time,
            "mean_slowdown": deployment_record.mean_slowdown,
            "link_traffic_gb": deployment_record.link_traffic_gb,
        }
        self._check_qos(record, deployment_record)

    @staticmethod
    def _check_qos(record: DecisionRecord, deployment_record) -> None:
        """Count a QoS violation when a joined LC outcome misses its SLO."""
        if record.qos_ms is None or not math.isfinite(record.qos_ms):
            return
        p99 = deployment_record.p99_ms
        if not math.isfinite(p99) or p99 <= record.qos_ms:
            return
        from repro.obs import runtime  # late import: runtime imports audit

        runtime.metrics().counter(
            "qos_violations_total",
            "Joined LC outcomes whose measured p99 exceeded their QoS",
            labels=("policy", "app"),
        ).labels(policy=record.policy, app=record.app_name).inc()

    # -- queries -------------------------------------------------------------
    def joined(self) -> list[DecisionRecord]:
        return [r for r in self.records if r.joined]

    def unjoined(self) -> list[DecisionRecord]:
        return [r for r in self.records if not r.joined]

    def accuracy(self) -> dict[str, dict[str, float]]:
        """Per-policy predicted-vs-actual accuracy over joined rows.

        Returns ``{policy: {count, mae, mape, bias}}`` where *bias* is
        the mean signed error (positive ⇒ the predictor over-estimates).
        """
        by_policy: dict[str, list[float]] = {}
        ratios: dict[str, list[float]] = {}
        for record in self.records:
            error = record.prediction_error
            if error is None:
                continue
            actual = record.outcome["performance"]
            by_policy.setdefault(record.policy, []).append(error)
            if actual:
                ratios.setdefault(record.policy, []).append(
                    abs(error) / abs(actual)
                )
        summary = {}
        for policy, errors in by_policy.items():
            n = len(errors)
            summary[policy] = {
                "count": n,
                "mae": sum(abs(e) for e in errors) / n,
                "mape": (
                    sum(ratios.get(policy, [])) / len(ratios[policy])
                    if ratios.get(policy)
                    else float("nan")
                ),
                "bias": sum(errors) / n,
            }
        return summary

    def drift(self, n_segments: int = 4) -> list[dict[str, float]]:
        """Signed prediction error bucketed over decision order.

        Reveals whether accuracy degrades as a replay progresses (model
        drift / distribution shift) — each segment reports its mean
        signed error and MAE.
        """
        if n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        scored = [
            (r.decision_id, r.prediction_error)
            for r in self.records
            if r.prediction_error is not None
        ]
        if not scored:
            return []
        per_segment = max(1, math.ceil(len(scored) / n_segments))
        segments = []
        for i in range(0, len(scored), per_segment):
            chunk = [e for _, e in scored[i : i + per_segment]]
            segments.append(
                {
                    "segment": len(segments),
                    "count": len(chunk),
                    "bias": sum(chunk) / len(chunk),
                    "mae": sum(abs(e) for e in chunk) / len(chunk),
                }
            )
        return segments

    def reset(self) -> None:
        self.records.clear()

    # -- export --------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(record.to_dict()) + "\n" for record in self.records
        )


class NullAuditLog:
    """Zero-cost audit log used while observability is disabled."""

    records: list[DecisionRecord] = []

    def __len__(self) -> int:
        return 0

    def record(self, **kwargs) -> None:
        return None

    def disarm(self, engine, record) -> None:
        pass

    def joined(self) -> list[DecisionRecord]:
        return []

    def unjoined(self) -> list[DecisionRecord]:
        return []

    def accuracy(self) -> dict:
        return {}

    def drift(self, n_segments: int = 4) -> list:
        return []

    def reset(self) -> None:
        pass

    def to_jsonl(self) -> str:
        return ""


NULL_AUDIT = NullAuditLog()
