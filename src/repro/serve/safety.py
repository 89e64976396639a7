"""Declarative safety envelope for the serving daemon's admission path.

A :class:`SafetyEnvelope` is a small JSON-loadable document declaring
hard limits the orchestrator may never schedule past, regardless of
what the placement policy prefers: link/pool utilization ceilings,
per-app QoS burn-rate limits fed by the live SLO engine, a cap on
concurrent remote placements, and a breaker-state gate.  The
:class:`SafetyMonitor` evaluates the constraints — in declared order,
first violation wins — against the *hypothetical* state with the
candidate admitted, and answers with a :class:`SafetyVerdict`: admit,
downgrade the placement to local memory, or veto it outright.

Vetoes are first-class citizens of the observability plane: counted in
``safety_vetoes_total{constraint,node}``, audited as decision causes by
the daemon, and pushed as edge-triggered ``safety_veto`` /
``safety_clear`` events onto the live stream so ``repro obs watch`` can
render a tripped-constraint panel.

Only REMOTE candidates are constrained: the envelope protects the
shared disaggregated fabric, and a local placement consumes none of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.faults.checkpoint import require_fields
from repro.obs.fsio import atomic_write_text
from repro.workloads.base import MemoryMode, WorkloadKind, WorkloadProfile

__all__ = [
    "ENVELOPE_VERSION",
    "CONSTRAINT_KINDS",
    "SafetyConfigError",
    "SafetyConstraint",
    "SafetyEnvelope",
    "SafetyVerdict",
    "SafetyMonitor",
]

ENVELOPE_VERSION = 1

#: Constraint kind -> (needs a limit, validation rule).
CONSTRAINT_KINDS = {
    "max_link_utilization": (True, "fraction"),
    "max_pool_bandwidth": (True, "fraction"),
    "max_pool_capacity": (True, "fraction"),
    "max_qos_burn_rate": (True, "positive"),
    "max_concurrent_remote": (True, "count"),
    "breaker_closed": (False, None),
}

_ACTIONS = ("veto", "downgrade")


class SafetyConfigError(ValueError):
    """An envelope document is malformed (kind, limit or action)."""


@dataclass(frozen=True)
class SafetyConstraint:
    """One declarative limit: a kind, a limit and a violation action."""

    kind: str
    limit: float | None = None
    action: str = "veto"

    def __post_init__(self) -> None:
        if self.kind not in CONSTRAINT_KINDS:
            raise SafetyConfigError(
                f"unknown safety constraint kind {self.kind!r} "
                f"(known: {', '.join(sorted(CONSTRAINT_KINDS))})"
            )
        if self.action not in _ACTIONS:
            raise SafetyConfigError(
                f"{self.kind}: action must be one of {_ACTIONS}, "
                f"got {self.action!r}"
            )
        needs_limit, rule = CONSTRAINT_KINDS[self.kind]
        if not needs_limit:
            if self.limit is not None:
                raise SafetyConfigError(f"{self.kind} takes no limit")
            return
        if self.limit is None:
            raise SafetyConfigError(f"{self.kind} requires a limit")
        if rule == "fraction" and not 0.0 < self.limit <= 1.0:
            raise SafetyConfigError(
                f"{self.kind}: limit must be in (0, 1], got {self.limit}"
            )
        if rule == "positive" and self.limit <= 0:
            raise SafetyConfigError(
                f"{self.kind}: limit must be positive, got {self.limit}"
            )
        if rule == "count" and (self.limit < 1 or self.limit != int(self.limit)):
            raise SafetyConfigError(
                f"{self.kind}: limit must be a whole number >= 1, "
                f"got {self.limit}"
            )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "action": self.action}
        if self.limit is not None:
            out["limit"] = self.limit
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SafetyConstraint":
        if not isinstance(data, dict):
            raise SafetyConfigError(f"constraint must be an object: {data!r}")
        unknown = set(data) - {"kind", "limit", "action"}
        if unknown:
            raise SafetyConfigError(
                f"constraint has unknown fields {sorted(unknown)}"
            )
        if "kind" not in data:
            raise SafetyConfigError("constraint is missing 'kind'")
        return cls(
            kind=data["kind"],
            limit=data.get("limit"),
            action=data.get("action", "veto"),
        )


@dataclass(frozen=True)
class SafetyEnvelope:
    """An ordered set of constraints; evaluation stops at the first hit."""

    constraints: tuple[SafetyConstraint, ...] = ()
    description: str = ""

    def to_dict(self) -> dict:
        return {
            "version": ENVELOPE_VERSION,
            "description": self.description,
            "constraints": [c.to_dict() for c in self.constraints],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SafetyEnvelope":
        if not isinstance(data, dict):
            raise SafetyConfigError("envelope must be a JSON object")
        version = data.get("version", ENVELOPE_VERSION)
        if version != ENVELOPE_VERSION:
            raise SafetyConfigError(
                f"unsupported envelope version {version!r} "
                f"(expected {ENVELOPE_VERSION})"
            )
        raw = data.get("constraints", [])
        if not isinstance(raw, list):
            raise SafetyConfigError("'constraints' must be a list")
        return cls(
            constraints=tuple(SafetyConstraint.from_dict(c) for c in raw),
            description=str(data.get("description", "")),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "SafetyEnvelope":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise SafetyConfigError(f"no safety envelope at {path}") from None
        except json.JSONDecodeError as error:
            raise SafetyConfigError(
                f"corrupt safety envelope {path}: {error}"
            ) from None
        return cls.from_dict(data)

    def to_file(self, path: str | Path) -> Path:
        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2) + "\n"
        )

    @classmethod
    def sample(cls) -> "SafetyEnvelope":
        """A conservative envelope suitable for the examples and CI."""
        return cls(
            constraints=(
                SafetyConstraint("breaker_closed", action="downgrade"),
                SafetyConstraint("max_link_utilization", 0.9,
                                 action="downgrade"),
                SafetyConstraint("max_pool_bandwidth", 0.95),
                SafetyConstraint("max_pool_capacity", 0.95),
                SafetyConstraint("max_qos_burn_rate", 4.0),
                SafetyConstraint("max_concurrent_remote", 16),
            ),
            description="sample envelope: fabric ceilings + breaker gate",
        )


@dataclass(frozen=True)
class SafetyVerdict:
    """Outcome of one admission review."""

    action: str  # "admit" | "downgrade" | "veto"
    constraint: str | None = None
    detail: dict = field(default_factory=dict)

    @property
    def admitted(self) -> bool:
        return self.action == "admit"


_ADMIT = SafetyVerdict(action="admit")


class SafetyMonitor:
    """Evaluates an envelope against candidate placements.

    ``breaker`` and ``slo`` are the daemon's circuit breaker and live
    :class:`~repro.obs.live.slo.SloEngine`; either may be ``None``, in
    which case the corresponding constraint kinds pass trivially.
    Veto/downgrade tallies are kept on the monitor itself
    (``self.vetoes`` / ``self.downgrades``) so the accounting survives
    observability being off.
    """

    def __init__(self, envelope: SafetyEnvelope, breaker=None, slo=None) -> None:
        self.envelope = envelope
        self.breaker = breaker
        self.slo = slo
        #: constraint kind -> veto / downgrade counts (obs-independent).
        self.vetoes: dict[str, int] = {}
        self.downgrades: dict[str, int] = {}
        #: Constraints currently tripped (edge detection for the stream).
        self._active: set[str] = set()

    # -- measurement ---------------------------------------------------------
    def _measure(
        self,
        constraint: SafetyConstraint,
        profile: WorkloadProfile,
        engine,
        fleet,
        clock: float,
    ) -> tuple[float, float] | None:
        """``(value, limit)`` for one constraint, or ``None`` when it
        cannot be evaluated in this context (no fleet pool, no SLO data,
        ...) — unevaluable constraints pass rather than veto blindly."""
        kind = constraint.kind
        if kind == "max_link_utilization":
            pressure = engine.pressure_with(profile, MemoryMode.REMOTE)
            return pressure.link.utilization, constraint.limit
        if kind == "max_pool_bandwidth":
            if fleet is None or fleet.pool is None:
                return None
            offered = [
                eng.inflight_demand.remote_bw_gbps for eng in fleet.engines
            ]
            index = fleet.engines.index(engine) if engine in fleet.engines else 0
            offered[index] += profile.remote_bw_gbps
            return fleet.pool.bandwidth_utilization(offered), constraint.limit
        if kind == "max_pool_capacity":
            if fleet is None or fleet.pool is None:
                return None
            # Against the surviving pool, as RemotePool.fits admits.
            used = sum(fleet._remote_used_gb()) + profile.footprint_gb
            capacity = max(fleet.pool.effective_capacity_gb, 1e-12)
            return used / capacity, constraint.limit
        if kind == "max_qos_burn_rate":
            if self.slo is None or (
                profile.kind is not WorkloadKind.LATENCY_CRITICAL
            ):
                return None
            rates = self.slo.burn_rates(profile.name, clock)
            if not rates:
                return None
            # The shortest window reacts fastest — that is the one the
            # admission gate should key on.
            return rates[min(rates)], constraint.limit
        if kind == "max_concurrent_remote":
            engines = fleet.engines if fleet is not None else [engine]
            count = sum(eng.inflight_remote for eng in engines)
            return float(count + 1), constraint.limit + 0.5
        if kind == "breaker_closed":
            if self.breaker is None:
                return None
            from repro.faults.breaker import CircuitState

            open_ = self.breaker.state is not CircuitState.CLOSED
            return (1.0 if open_ else 0.0), 0.5
        return None

    # -- review --------------------------------------------------------------
    def review(
        self,
        profile: WorkloadProfile,
        mode: MemoryMode,
        engine,
        fleet=None,
        clock: float = 0.0,
    ) -> SafetyVerdict:
        """Judge one candidate placement against the envelope.

        Local candidates are always admitted (the envelope protects the
        shared fabric).  For remote candidates the constraints run in
        declared order and the first violation decides the verdict; a
        violation increments the per-constraint tally and metric and
        emits an edge-triggered stream event, and a constraint seen
        *passing* after having tripped emits the matching clear event.
        """
        node = getattr(engine, "node_label", None) or "n0"
        if mode is not MemoryMode.REMOTE:
            return _ADMIT
        verdict = _ADMIT
        for constraint in self.envelope.constraints:
            measured = self._measure(constraint, profile, engine, fleet, clock)
            if measured is None:
                continue
            value, limit = measured
            if value > limit + 1e-12:
                verdict = SafetyVerdict(
                    action=constraint.action,
                    constraint=constraint.kind,
                    detail={
                        "value": round(value, 6),
                        "limit": constraint.limit,
                        "node": node,
                        "app": profile.name,
                        "clock": round(clock, 6),
                    },
                )
                self._trip(verdict)
                return verdict
            self._clear(constraint.kind, node, clock)
        return verdict

    # -- accounting ----------------------------------------------------------
    def _trip(self, verdict: SafetyVerdict) -> None:
        kind = verdict.constraint
        node = verdict.detail.get("node", "n0")
        tally = self.vetoes if verdict.action == "veto" else self.downgrades
        tally[kind] = tally.get(kind, 0) + 1
        if obs.enabled():
            family = (
                "safety_vetoes_total"
                if verdict.action == "veto"
                else "safety_downgrades_total"
            )
            obs.metrics().counter(
                family,
                "Admissions stopped by the safety envelope, by constraint",
                labels=("constraint", "node"),
            ).labels(constraint=kind, node=node).inc()
        live = obs.live_session()
        if live is not None:
            live.note_event(
                "safety_veto",
                constraint=kind,
                node=node,
                app=verdict.detail.get("app"),
                value=verdict.detail.get("value"),
                limit=verdict.detail.get("limit"),
                action=verdict.action,
                clock=verdict.detail.get("clock", 0.0),
            )
        self._active.add(kind)

    def _clear(self, kind: str, node: str, clock: float = 0.0) -> None:
        if kind not in self._active:
            return
        self._active.discard(kind)
        live = obs.live_session()
        if live is not None:
            live.note_event(
                "safety_clear", constraint=kind, node=node,
                clock=round(clock, 6),
            )

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "vetoes": dict(self.vetoes),
            "downgrades": dict(self.downgrades),
            "active": sorted(self._active),
        }

    def load_state_dict(self, data: dict) -> None:
        require_fields(data, "safety", ("vetoes", "downgrades", "active"))
        self.vetoes = dict(data["vetoes"])
        self.downgrades = dict(data["downgrades"])
        self._active = set(data["active"])
