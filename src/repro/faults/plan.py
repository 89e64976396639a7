"""Fault plans: declarative, seeded, JSON-serializable fault schedules.

A :class:`FaultPlan` is a validated list of :class:`FaultSpec` windows on
the *simulated* clock of one scenario engine (every engine starts at
t = 0, so a plan applies identically to each scenario replay of an
evaluation — the policies face the same degraded conditions on the same
schedule).  Plans serialize to plain JSON so they can be versioned next
to experiment outputs, and :meth:`FaultPlan.sample` derives a
representative plan deterministically from an experiment seed, keeping
faulted runs bit-reproducible end to end.

Fault kinds
-----------

``link_degrade``
    Remote-link throughput cap scaled by ``capacity_factor`` ∈ (0, 1]
    and channel latency stretched by ``latency_factor`` ≥ 1.
``link_outage``
    Full link flap: the channel delivers only the FPGA back-pressure
    drain trickle (see ``LinkConfig.outage_drain_fraction``) and new
    remote deployments are blocked (the engine re-queues them).
``telemetry_dropout``
    The Watcher loses whole samples: each tick's counter row is dropped
    (recorded as an all-NaN gap) with probability ``probability``.
``telemetry_corrupt``
    Counter corruption: each metric value is independently replaced by
    NaN with probability ``probability``.
``predictor_nan``
    Performance estimates are replaced by ``value`` (``"nan"`` or
    ``"inf"``) with probability ``probability`` per inference call.
``predictor_delay``
    Every inference call takes an extra ``latency_s`` seconds; callers
    that pass a decision deadline below it observe a timeout.

Trainer-side kinds run on a different clock: ``start_s``/``duration_s``
are interpreted as *epoch indices* (``nan_grad``, ``ckpt_write_fail``)
or *retrain-attempt indices* (``retrain_timeout``) by
:class:`repro.faults.training.TrainingChaos` — the schedule semantics
(seeded windows, JSON round-trip, bit-reproducibility) are identical.

``nan_grad``
    With ``probability`` per epoch in the window, every parameter
    gradient is replaced by NaN right before the optimizer step,
    exercising the Trainer's divergence-recovery path.
``ckpt_write_fail``
    Fit-checkpoint writes fail (with ``probability``) while the window
    covers the epoch being saved; the trainer keeps the previous
    checkpoint and continues.
``retrain_timeout``
    Covered retrain attempts are given ``timeout_s`` seconds of wall
    clock; a candidate fit exceeding it is abandoned and the incumbent
    model stays in place.

Daemon-side kinds target the serving loop of
:class:`repro.serve.OrchestratorDaemon`; their windows run on the
daemon's simulated fleet clock.

``conn_drop``
    While the window is open, each incoming client request is dropped
    (the connection is closed before a response is written) with
    ``probability`` — exercising client retry and the daemon's
    request-error accounting.
``wedged_tick``
    The daemon's tick loop stops advancing simulated time while the
    window covers the fleet clock — a stand-in for a hung engine tick.
    The watchdog detects the stall on the wall clock, opens the daemon
    breaker and restarts the tick machinery.

Fleet-side kinds target whole failure domains of a
:class:`repro.cluster.ClusterFleet`; their windows run on the fleet
clock and are consumed by the :class:`repro.cluster.FleetHealthManager`
(the per-node :class:`FaultInjector` ignores them).

``node_crash``
    Fail-stop crash of one borrower node (``node`` = ``"n<index>"``).
    The node stops heartbeating at ``start_s``; its in-flight
    deployments are lost and — once the failure detector declares it
    DOWN — drained into the failover queue and replayed on survivors.
    The node reboots (rejoins with cold telemetry) when the window
    closes.
``node_rejoin``
    Forces a crashed ``node`` back up while active — an explicit early
    reboot that overrides any covering ``node_crash`` window.
``pool_device_fail``
    A ``fraction`` of the remote pool's memory devices fail: pool
    capacity and aggregate bandwidth shrink by that fraction (bandwidth
    override via ``bandwidth_fraction``), forcing immediate water-fill
    re-arbitration and eviction-or-park of remote segments that no
    longer fit.  Devices are replaced when the window closes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.faults.errors import FaultPlanError

__all__ = [
    "FAULT_KINDS",
    "TRAINER_KINDS",
    "DAEMON_KINDS",
    "NODE_KINDS",
    "POOL_KINDS",
    "FLEET_KINDS",
    "FaultSpec",
    "FaultPlan",
]

PLAN_VERSION = 1

#: kind -> {param: (required, validator, doc)}
_PARAM_SCHEMAS: dict[str, dict[str, tuple[bool, str]]] = {
    "link_degrade": {
        "capacity_factor": (True, "fraction"),
        "latency_factor": (False, "stretch"),
    },
    "link_outage": {
        "latency_factor": (False, "stretch"),
    },
    "telemetry_dropout": {
        "probability": (True, "probability"),
    },
    "telemetry_corrupt": {
        "probability": (True, "probability"),
    },
    "predictor_nan": {
        "probability": (True, "probability"),
        "value": (False, "nan_or_inf"),
    },
    "predictor_delay": {
        "latency_s": (True, "positive"),
    },
    "nan_grad": {
        "probability": (True, "probability"),
    },
    "ckpt_write_fail": {
        "probability": (True, "probability"),
    },
    "retrain_timeout": {
        "timeout_s": (True, "positive"),
    },
    "conn_drop": {
        "probability": (True, "probability"),
    },
    "wedged_tick": {},
    "node_crash": {
        "node": (True, "node_label"),
    },
    "node_rejoin": {
        "node": (True, "node_label"),
    },
    "pool_device_fail": {
        "fraction": (True, "fraction"),
        "bandwidth_fraction": (False, "fraction"),
    },
}

FAULT_KINDS: tuple[str, ...] = tuple(_PARAM_SCHEMAS)

#: Fault kinds grouped by the subsystem they target.
LINK_KINDS = ("link_degrade", "link_outage")
#: Trainer-side kinds; windows run on the epoch / retrain-attempt clock.
TRAINER_KINDS = ("nan_grad", "ckpt_write_fail", "retrain_timeout")
#: Daemon-side kinds; windows run on the serving daemon's fleet clock.
DAEMON_KINDS = ("conn_drop", "wedged_tick")
#: Node-lifecycle kinds; windows run on the fleet clock, targeted per node.
NODE_KINDS = ("node_crash", "node_rejoin")
#: Remote-pool device kinds; windows run on the fleet clock.
POOL_KINDS = ("pool_device_fail",)
#: Kinds consumed by the fleet health manager, not the per-node injector.
FLEET_KINDS = NODE_KINDS + POOL_KINDS


def _check_param(kind: str, name: str, rule: str, value) -> None:
    if rule == "fraction":
        if not (isinstance(value, (int, float)) and 0 < value <= 1):
            raise FaultPlanError(
                f"{kind}.{name} must be a fraction in (0, 1], got {value!r}"
            )
    elif rule == "probability":
        if not (isinstance(value, (int, float)) and 0 < value <= 1):
            raise FaultPlanError(
                f"{kind}.{name} must be a probability in (0, 1], got {value!r}"
            )
    elif rule == "stretch":
        if not (isinstance(value, (int, float)) and value >= 1):
            raise FaultPlanError(
                f"{kind}.{name} must be a stretch factor >= 1, got {value!r}"
            )
    elif rule == "positive":
        if not (isinstance(value, (int, float)) and value > 0):
            raise FaultPlanError(
                f"{kind}.{name} must be positive, got {value!r}"
            )
    elif rule == "nan_or_inf":
        if value not in ("nan", "inf"):
            raise FaultPlanError(
                f"{kind}.{name} must be 'nan' or 'inf', got {value!r}"
            )
    elif rule == "node_label":
        ok = (
            isinstance(value, str)
            and value.startswith("n")
            and value[1:].isdigit()
        )
        if not ok:
            raise FaultPlanError(
                f"{kind}.{name} must be a node label like 'n0', got {value!r}"
            )
    else:  # pragma: no cover - schema typo guard
        raise AssertionError(f"unknown validation rule {rule!r}")


@dataclass(frozen=True)
class FaultSpec:
    """One fault window on the simulated clock of an engine run."""

    kind: str
    start_s: float
    duration_s: float
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _PARAM_SCHEMAS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: {list(FAULT_KINDS)}"
            )
        if not (isinstance(self.start_s, (int, float)) and self.start_s >= 0):
            raise FaultPlanError(f"{self.kind}.start_s must be >= 0")
        if not (isinstance(self.duration_s, (int, float)) and self.duration_s > 0):
            raise FaultPlanError(f"{self.kind}.duration_s must be positive")
        schema = _PARAM_SCHEMAS[self.kind]
        for name, value in self.params.items():
            if name not in schema:
                raise FaultPlanError(
                    f"{self.kind} does not accept parameter {name!r}; "
                    f"allowed: {sorted(schema)}"
                )
            _check_param(self.kind, name, schema[name][1], value)
        for name, (required, _) in schema.items():
            if required and name not in self.params:
                raise FaultPlanError(f"{self.kind} requires parameter {name!r}")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active(self, now: float) -> bool:
        """Whether this window covers simulated time ``now``."""
        return self.start_s <= now < self.end_s

    def param(self, name: str, default=None):
        return self.params.get(name, default)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault spec must be an object, got {data!r}")
        unknown = set(data) - {"kind", "start_s", "duration_s", "params"}
        if unknown:
            raise FaultPlanError(f"fault spec has unknown fields {sorted(unknown)}")
        try:
            return cls(
                kind=data["kind"],
                start_s=data["start_s"],
                duration_s=data["duration_s"],
                params=dict(data.get("params", {})),
            )
        except KeyError as missing:
            raise FaultPlanError(f"fault spec missing field {missing}") from None


@dataclass(frozen=True)
class FaultPlan:
    """A validated, seeded schedule of fault windows."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise FaultPlanError("plan seed must be an integer")
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    # -- queries -------------------------------------------------------------
    def active(self, kinds, now: float) -> FaultSpec | None:
        """The first active fault of one of ``kinds`` at time ``now``."""
        for spec in self.faults:
            if spec.kind in kinds and spec.active(now):
                return spec
        return None

    def of_kind(self, kind: str) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.faults if s.kind == kind)

    def node_crashed(self, node: str, now: float) -> bool:
        """Whether ``node`` is fail-stopped at fleet time ``now``.

        An active ``node_rejoin`` window for the node overrides any
        covering ``node_crash`` window (explicit early reboot).
        """
        rejoined = any(
            s.kind == "node_rejoin" and s.param("node") == node and s.active(now)
            for s in self.faults
        )
        if rejoined:
            return False
        return any(
            s.kind == "node_crash" and s.param("node") == node and s.active(now)
            for s in self.faults
        )

    def device_fault_factors(self, now: float) -> tuple[float, float]:
        """Surviving ``(capacity_factor, bandwidth_factor)`` of the pool.

        Concurrent ``pool_device_fail`` windows compound: each active
        window removes its ``fraction`` of the devices that survived the
        previous one.  ``(1.0, 1.0)`` when no device fault is active.
        """
        capacity = 1.0
        bandwidth = 1.0
        for spec in self.faults:
            if spec.kind != "pool_device_fail" or not spec.active(now):
                continue
            lost = float(spec.param("fraction"))
            capacity *= max(0.0, 1.0 - lost)
            bw_lost = float(spec.param("bandwidth_fraction", lost))
            bandwidth *= max(0.0, 1.0 - bw_lost)
        return capacity, bandwidth

    def validate(self, n_nodes: int | None = None) -> "FaultPlan":
        """Cross-check the plan against a concrete fleet shape.

        Construction already validates kinds and parameters; this adds
        the checks that need context — currently that every node target
        of a ``node_crash``/``node_rejoin`` window exists in a fleet of
        ``n_nodes`` nodes (a typo'd label would otherwise silently never
        fire).  Returns ``self`` so calls chain.
        """
        if n_nodes is not None:
            if n_nodes <= 0:
                raise FaultPlanError("n_nodes must be positive")
            valid = {f"n{i}" for i in range(n_nodes)}
            for spec in self.faults:
                if spec.kind not in NODE_KINDS:
                    continue
                target = spec.param("node")
                if target not in valid:
                    raise FaultPlanError(
                        f"{spec.kind} targets unknown node {target!r}; "
                        f"fleet has {n_nodes} nodes (n0..n{n_nodes - 1})"
                    )
        return self

    @property
    def horizon_s(self) -> float:
        """Simulated time at which the last fault window closes."""
        return max((s.end_s for s in self.faults), default=0.0)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": PLAN_VERSION,
            "seed": self.seed,
            "description": self.description,
            "faults": [s.to_dict() for s in self.faults],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        version = data.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise FaultPlanError(
                f"unsupported plan version {version!r} (expected {PLAN_VERSION})"
            )
        unknown = set(data) - {"version", "seed", "description", "faults"}
        if unknown:
            raise FaultPlanError(f"fault plan has unknown fields {sorted(unknown)}")
        faults = data.get("faults", [])
        if not isinstance(faults, list):
            raise FaultPlanError("'faults' must be a list")
        return cls(
            faults=tuple(FaultSpec.from_dict(entry) for entry in faults),
            seed=data.get("seed", 0),
            description=data.get("description", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultPlanError(f"invalid plan JSON: {error}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def to_file(self, path: str | Path) -> Path:
        from repro.obs.fsio import atomic_write_text

        return atomic_write_text(path, self.to_json())

    # -- derivation ----------------------------------------------------------
    @classmethod
    def sample(cls, seed: int = 0, duration_s: float = 900.0) -> "FaultPlan":
        """A representative plan derived deterministically from ``seed``.

        Exercises every subsystem the injector targets: a 60 s full link
        outage, a throughput/latency degradation window, telemetry
        dropouts and NaN corruption, and a predictor NaN + delay phase —
        staggered across the first ``duration_s`` seconds of each
        scenario run.  Same seed ⇒ bit-identical plan.
        """
        if duration_s < 300.0:
            raise FaultPlanError("sample plans need at least 300 s of runway")
        rng = np.random.default_rng(seed)
        third = duration_s / 3.0

        def jitter(low: float, high: float) -> float:
            return float(np.round(rng.uniform(low, high), 1))

        outage_start = jitter(third, third + 60.0)
        faults = (
            FaultSpec(
                kind="telemetry_dropout",
                start_s=jitter(30.0, 60.0),
                duration_s=jitter(45.0, 90.0),
                params={"probability": 0.5},
            ),
            FaultSpec(
                kind="telemetry_corrupt",
                start_s=jitter(120.0, 180.0),
                duration_s=jitter(60.0, 120.0),
                params={"probability": 0.25},
            ),
            FaultSpec(
                kind="link_degrade",
                start_s=jitter(200.0, 260.0),
                duration_s=jitter(60.0, 120.0),
                params={"capacity_factor": 0.5, "latency_factor": 1.5},
            ),
            FaultSpec(
                kind="link_outage",
                start_s=outage_start,
                duration_s=60.0,
                params={"latency_factor": 1.0},
            ),
            # The predictor phase ends by ~0.8 · duration so the circuit
            # breaker's cooldown (default 120 s) and a successful
            # half-open probe fit inside the run — sampled plans should
            # demonstrate recovery, not just degradation.
            FaultSpec(
                kind="predictor_nan",
                start_s=jitter(0.60 * duration_s, 0.65 * duration_s),
                duration_s=jitter(0.05 * duration_s, 0.08 * duration_s),
                params={"probability": 1.0, "value": "nan"},
            ),
            FaultSpec(
                kind="predictor_delay",
                start_s=jitter(0.70 * duration_s, 0.73 * duration_s),
                duration_s=jitter(0.04 * duration_s, 0.06 * duration_s),
                params={"latency_s": 5.0},
            ),
        )
        return cls(
            faults=faults,
            seed=seed,
            description=(
                f"sample plan (seed={seed}): link outage + degradation, "
                "telemetry dropouts/corruption, predictor NaNs and delays"
            ),
        )

    @classmethod
    def sample_daemon(cls, seed: int = 0, duration_s: float = 120.0) -> "FaultPlan":
        """A representative *daemon-side* plan on the fleet clock.

        One connection-drop window early (client retry + request-error
        accounting) and one wedged-tick window later (watchdog recovery
        behind the daemon breaker).  Same seed ⇒ bit-identical plan.
        """
        if duration_s < 30.0:
            raise FaultPlanError("daemon sample plans need at least 30 s of runway")
        rng = np.random.default_rng([seed, 0xDA3])

        def jitter(low: float, high: float) -> float:
            return float(np.round(rng.uniform(low, high), 1))

        drop_start = jitter(0.05 * duration_s, 0.15 * duration_s)
        wedge_start = jitter(0.45 * duration_s, 0.55 * duration_s)
        faults = (
            FaultSpec(
                kind="conn_drop",
                start_s=drop_start,
                duration_s=jitter(0.10 * duration_s, 0.20 * duration_s),
                params={"probability": 1.0},
            ),
            FaultSpec(
                kind="wedged_tick",
                start_s=wedge_start,
                duration_s=jitter(0.05 * duration_s, 0.10 * duration_s),
            ),
        )
        return cls(
            faults=faults,
            seed=seed,
            description=(
                f"daemon sample plan (seed={seed}): connection drops from "
                f"{drop_start:.0f}s, wedged tick loop from {wedge_start:.0f}s"
            ),
        )

    @classmethod
    def sample_availability(
        cls,
        seed: int = 0,
        duration_s: float = 900.0,
        n_nodes: int = 4,
    ) -> "FaultPlan":
        """A representative *fleet-side* crash/rejoin schedule.

        One long crash of ``n1`` cut short by an explicit early rejoin,
        a later shorter crash of ``n2`` overlapping a pool-device
        failure that halves the remote pool — every failure domain the
        health manager owns, with all windows closing well before
        ``duration_s`` so the fleet demonstrates recovery.  Same seed ⇒
        bit-identical plan.
        """
        if duration_s < 300.0:
            raise FaultPlanError(
                "availability sample plans need at least 300 s of runway"
            )
        if n_nodes < 3:
            raise FaultPlanError(
                "availability sample plans target n1 and n2; need >= 3 nodes"
            )
        rng = np.random.default_rng([seed, 0xFA17])

        def jitter(low: float, high: float) -> float:
            return float(np.round(rng.uniform(low, high), 1))

        crash1_start = jitter(0.20 * duration_s, 0.25 * duration_s)
        crash1_dur = jitter(0.18 * duration_s, 0.22 * duration_s)
        # Early reboot ~70% through the crash window, covering its
        # remainder so n1 stays up once rejoined (no flapping).
        rejoin_start = float(np.round(crash1_start + 0.7 * crash1_dur, 1))
        rejoin_dur = float(np.round(crash1_start + crash1_dur - rejoin_start, 1))
        crash2_start = jitter(0.55 * duration_s, 0.60 * duration_s)
        crash2_dur = jitter(0.08 * duration_s, 0.12 * duration_s)
        device_start = jitter(0.60 * duration_s, 0.63 * duration_s)
        faults = (
            FaultSpec(
                kind="node_crash",
                start_s=crash1_start,
                duration_s=crash1_dur,
                params={"node": "n1"},
            ),
            FaultSpec(
                kind="node_rejoin",
                start_s=rejoin_start,
                duration_s=rejoin_dur,
                params={"node": "n1"},
            ),
            FaultSpec(
                kind="node_crash",
                start_s=crash2_start,
                duration_s=crash2_dur,
                params={"node": "n2"},
            ),
            FaultSpec(
                kind="pool_device_fail",
                start_s=device_start,
                duration_s=jitter(0.08 * duration_s, 0.10 * duration_s),
                params={"fraction": 0.5},
            ),
        )
        return cls(
            faults=faults,
            seed=seed,
            description=(
                f"availability sample plan (seed={seed}): n1 crash at "
                f"{crash1_start:.0f}s with early rejoin, n2 crash at "
                f"{crash2_start:.0f}s overlapping a half-pool device loss"
            ),
        ).validate(n_nodes)

    @classmethod
    def sample_trainer(cls, seed: int = 0, epochs: int = 12) -> "FaultPlan":
        """A representative *trainer-side* plan on the epoch clock.

        Exercises the resilient training runtime end to end: a NaN
        gradient burst early (divergence recovery), a checkpoint-write
        failure window later (degraded checkpointing), and a timeout on
        the second retrain attempt (gated promotion keeps the
        incumbent).  Same seed ⇒ bit-identical plan.
        """
        if epochs < 6:
            raise FaultPlanError(
                "trainer sample plans need at least 6 epochs of runway"
            )
        rng = np.random.default_rng([seed, 0x7E41])
        nan_epoch = int(rng.integers(2, max(3, epochs // 2)))
        ckpt_epoch = int(rng.integers(epochs // 2, epochs - 1))
        faults = (
            FaultSpec(
                kind="nan_grad",
                start_s=float(nan_epoch),
                duration_s=1.0,
                params={"probability": 1.0},
            ),
            FaultSpec(
                kind="ckpt_write_fail",
                start_s=float(ckpt_epoch),
                duration_s=2.0,
                params={"probability": 1.0},
            ),
            FaultSpec(
                kind="retrain_timeout",
                start_s=1.0,
                duration_s=1.0,
                params={"timeout_s": 1e-3},
            ),
        )
        return cls(
            faults=faults,
            seed=seed,
            description=(
                f"trainer sample plan (seed={seed}): NaN-gradient burst at "
                f"epoch {nan_epoch}, checkpoint-write failures from epoch "
                f"{ckpt_epoch}, timeout on the second retrain attempt"
            ),
        )
