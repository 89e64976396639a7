"""The checkpoint codec shared by scenario replays, fleets and the daemon.

A checkpoint captures everything a resumed process needs to reproduce
the rest of a run *bit-identically*: engine state (clock, in-flight
deployments, trace — which holds every finished deployment's record —
outage retry queue, counter-noise and retry-jitter RNGs), fault
injectors (plan + RNG + open windows), fleet health, and the policy
(circuit breaker, RNG, captured signatures).  Arrivals are NOT stored —
they are regenerated from the scenario config's seed, and only the index
of the next arrival is recorded.

Every checkpoint kind is one JSON object, version
:data:`CHECKPOINT_VERSION`, whose top-level parts are listed in
:data:`LAYOUTS`.  :func:`write_checkpoint` writes it atomically
(:func:`repro.obs.fsio.atomic_write_text`), so a crash mid-write leaves
the previous checkpoint intact; :func:`read_checkpoint` checks that the
file exists, parses, carries this version and every part.  Each part's
loader then checks its own fields through :func:`require_fields`, so a
stale or hand-edited file fails with a :class:`CheckpointError` naming
the missing field — never a bare ``KeyError``.  Floats survive exactly
(``repr``-based JSON round-trips IEEE doubles, including the NaNs that
telemetry faults plant in counter rows).

Engine and fleet state each have one serializer pair; the loaders fill
*skeleton* objects in place — built exactly as the original run built
them — so fleet wiring (pool fits hooks, node labels, journeys, live
streams, finish hooks) is never rebuilt by hand.
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial
from operator import attrgetter
from pathlib import Path

import numpy as np

from repro.faults.errors import CheckpointError
from repro.obs.fsio import atomic_write_text
from repro.workloads.base import MemoryMode, WorkloadKind

__all__ = [
    "CHECKPOINT_VERSION",
    "LAYOUTS",
    "write_checkpoint",
    "read_checkpoint",
    "require_fields",
    "dataclass_from_dict",
    "scenario_config",
    "lookup_profile",
    "engine_state",
    "load_engine_state",
    "fleet_state",
    "load_fleet_state",
    "restore_injectors",
    "policy_state",
    "restore_policy",
    "save_checkpoint",
    "load_checkpoint",
    "resume_scenario",
]

CHECKPOINT_VERSION = 3

#: Top-level parts of each checkpoint kind, in file order (after
#: ``version``).
LAYOUTS = {
    "scenario": ("scenario", "arrivals_done", "engine", "injector", "policy"),
    "fleet": ("config", "arrivals_done", "fleet", "injectors", "policy"),
    "daemon": (
        "config", "envelope", "plan", "fleet", "breaker", "policy",
        "safety", "ledger", "next_id", "counters", "cleared_wedges",
    ),
}


# -- file envelope -------------------------------------------------------------
def write_checkpoint(path, kind: str, **parts) -> Path:
    """Atomically write one ``kind`` checkpoint made of ``parts``."""
    if tuple(parts) != LAYOUTS[kind]:
        raise ValueError(
            f"{kind} checkpoint parts {list(parts)} do not match the "
            f"layout {list(LAYOUTS[kind])}"
        )
    payload = {"version": CHECKPOINT_VERSION, **parts}
    return atomic_write_text(path, json.dumps(payload) + "\n")


def read_checkpoint(path, kind: str) -> dict:
    """Read a ``kind`` checkpoint: it exists, parses, is v3, has every part."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no {kind} checkpoint at {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise CheckpointError(f"corrupt {kind} checkpoint {path}: {error}") from None
    version = data.get("version") if isinstance(data, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported {kind} checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return require_fields(data, f"{kind} checkpoint", LAYOUTS[kind])


def require_fields(data, where: str, names) -> dict:
    """Return ``data`` once it is an object carrying every field in ``names``.

    Every part's loader validates its payload through here before
    reading it.
    """
    if not isinstance(data, dict):
        raise CheckpointError(
            f"stale or truncated checkpoint: {where} is not an object"
        )
    missing = [name for name in names if name not in data]
    if missing:
        raise CheckpointError(
            f"stale or truncated checkpoint: {where} is missing fields "
            f"{missing} — re-create the checkpoint with this version"
        )
    return data


def _fields_to_dict(obj, **encode) -> dict:
    """A dataclass instance as a dict in field order; ``encode`` maps a
    field name to the callable that makes its value JSON-ready."""
    out = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    for name, encoder in encode.items():
        out[name] = encoder(out[name])
    return out


def dataclass_from_dict(cls, data, where: str, **decode):
    """Rebuild dataclass ``cls`` from its field dict.

    Missing and unknown fields are both errors; ``decode`` maps a field
    name to the callable that rebuilds its value (tuples, enums, nested
    configs, workload profiles).
    """
    names = [f.name for f in dataclasses.fields(cls)]
    require_fields(data, where, names)
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise CheckpointError(f"{where} has unknown fields {unknown}")
    values = {name: data[name] for name in names}
    for name, decoder in decode.items():
        values[name] = decoder(values[name])
    return cls(**values)


def scenario_config(data):
    """The :class:`ScenarioConfig` part of a scenario or fleet checkpoint."""
    from repro.cluster.scenario import ScenarioConfig

    return dataclass_from_dict(
        ScenarioConfig, data, "scenario config",
        spawn_interval=tuple, interference_duration=tuple,
    )


def lookup_profile(profiles: dict, name: str):
    """The workload a checkpoint names, from the resuming run's pool."""
    try:
        return profiles[name]
    except KeyError:
        raise CheckpointError(
            f"checkpoint references unknown workload {name!r}; "
            "resume with the pool the original run used"
        ) from None


# -- engine state --------------------------------------------------------------
_ENGINE_FIELDS = (
    "now", "dt", "next_app_id", "remote_blocked", "retry_queue",
    "counter_rng", "retry_rng", "dropped_retries", "dead", "deployments",
    "trace",
)
_TRACE_FIELDS = ("times", "rows", "concurrency", "records")
_name = attrgetter("name")
_value = attrgetter("value")


def engine_state(engine) -> dict:
    """One engine's resumable state (the inverse of :func:`load_engine_state`)."""
    return {
        "now": engine.now,
        "dt": engine.dt,
        "next_app_id": engine._next_app_id,
        "remote_blocked": engine.remote_blocked,
        "retry_queue": [
            _fields_to_dict(entry, profile=_name) for entry in engine._retry_queue
        ],
        "counter_rng": engine.testbed.counters._rng.bit_generator.state,
        "retry_rng": engine._retry_rng.bit_generator.state,
        "dropped_retries": engine.dropped_retries,
        "dead": engine.dead,
        "deployments": [
            _fields_to_dict(d, profile=_name, mode=_value)
            for d in engine.deployments
        ],
        "trace": {
            "times": list(engine.trace.times),
            "rows": [row.tolist() for row in engine.trace._counter_rows],
            "concurrency": list(engine.trace.concurrency),
            "records": [
                _fields_to_dict(r, kind=_value, mode=_value)
                for r in engine.trace.records
            ],
        },
    }


def load_engine_state(engine, data, profiles: dict) -> None:
    """Load :func:`engine_state` output into a fresh skeleton engine.

    The skeleton is built with the original run's testbed config and
    tick; everything wired onto it (fits hook, node label, journey,
    finish and tick hooks, live stream) is kept as built.
    """
    from repro.cluster.deployment import Deployment, DeploymentRecord
    from repro.cluster.engine import RetryEntry

    require_fields(data, "engine", _ENGINE_FIELDS)
    if data["dt"] != engine.dt:
        raise CheckpointError(
            f"engine checkpoint ticks at dt={data['dt']!r}, "
            f"the engine at dt={engine.dt!r}"
        )
    profile = partial(lookup_profile, profiles)
    engine.now = data["now"]
    engine._next_app_id = data["next_app_id"]
    engine.remote_blocked = data["remote_blocked"]
    engine._retry_queue = [
        dataclass_from_dict(RetryEntry, entry, "retry-queue entry", profile=profile)
        for entry in data["retry_queue"]
    ]
    engine.testbed.counters._rng.bit_generator.state = data["counter_rng"]
    engine._retry_rng.bit_generator.state = data["retry_rng"]
    engine.dropped_retries = data["dropped_retries"]
    engine.dead = data["dead"]
    deployments = [
        dataclass_from_dict(
            Deployment, d, "deployment", profile=profile, mode=MemoryMode
        )
        for d in data["deployments"]
    ]
    finished = [d.app_id for d in deployments if not d.running]
    if finished:
        raise CheckpointError(
            f"engine checkpoint lists finished deployments {finished}; "
            "only in-flight work belongs there"
        )
    engine.set_inflight(deployments)
    trace = require_fields(data["trace"], "trace", _TRACE_FIELDS)
    engine.trace.times = list(trace["times"])
    engine.trace._counter_rows = [
        np.asarray(row, dtype=np.float64) for row in trace["rows"]
    ]
    engine.trace.concurrency = list(trace["concurrency"])
    engine.trace.records = [
        dataclass_from_dict(
            DeploymentRecord, r, "record", kind=WorkloadKind, mode=MemoryMode
        )
        for r in trace["records"]
    ]


# -- fleet state ---------------------------------------------------------------
_FLEET_FIELDS = (
    "now", "dt", "pool_throttled_ticks", "submitted", "health", "engines",
)


def fleet_state(fleet) -> dict:
    """A rack's resumable state (the inverse of :func:`load_fleet_state`)."""
    return {
        "now": fleet.now,
        "dt": fleet.dt,
        "pool_throttled_ticks": fleet.pool_throttled_ticks,
        "submitted": fleet.submitted,
        "health": fleet.health.state_dict() if fleet.health is not None else None,
        "engines": [engine_state(engine) for engine in fleet.engines],
    }


def load_fleet_state(fleet, data, profiles: dict, attach=None) -> None:
    """Load :func:`fleet_state` output into a skeleton fleet, in place.

    Engines and the fleet clock are restored first.  ``attach(fleet)``
    then runs — the fleet replay re-attaches its fault injectors there,
    which must see the restored engine clocks, and its health manager —
    and the health state loads last into ``fleet.health``.
    """
    require_fields(data, "fleet", _FLEET_FIELDS)
    if len(data["engines"]) != fleet.n_nodes:
        raise CheckpointError(
            f"checkpoint has {len(data['engines'])} engines for a "
            f"{fleet.n_nodes}-node fleet"
        )
    for engine, saved in zip(fleet.engines, data["engines"]):
        load_engine_state(engine, saved, profiles)
    fleet._now = data["now"]
    fleet.pool_throttled_ticks = data["pool_throttled_ticks"]
    fleet.submitted = data["submitted"]
    if attach is not None:
        attach(fleet)
    if (data["health"] is None) != (fleet.health is None):
        raise CheckpointError(
            "checkpoint health state does not match the fleet's fault plan"
        )
    if fleet.health is not None:
        fleet.health.load_state_dict(data["health"], profiles)


# -- injectors and policies ----------------------------------------------------
def restore_injectors(states, engines, predictor=None) -> list:
    """Rebuild one saved :class:`FaultInjector` per (restored) engine.

    ``FaultInjector.attach`` evaluates fault windows at the engine's
    clock, so this runs after the engines are loaded.  The shared
    predictor's chaos shim goes on the first engine's injector only.
    """
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

    if len(states) != len(engines):
        raise CheckpointError(
            f"checkpoint has {len(states)} injectors for {len(engines)} engines"
        )
    injectors = []
    for index, (engine, saved) in enumerate(zip(engines, states)):
        require_fields(saved, "injector", ("plan", "scenario_seed"))
        injector = FaultInjector(
            FaultPlan.from_dict(saved["plan"]),
            scenario_seed=saved["scenario_seed"],
        )
        injector.attach(engine, predictor=predictor if index == 0 else None)
        injector.load_state_dict(saved)
        injectors.append(injector)
    return injectors


def policy_state(policy) -> dict | None:
    """The policy's checkpoint state, or ``None`` for stateless policies."""
    return policy.state_dict() if hasattr(policy, "state_dict") else None


def restore_policy(policy, state) -> None:
    """Load a saved policy state into the caller's policy object."""
    if state is not None and hasattr(policy, "load_state_dict"):
        policy.load_state_dict(state)


# -- scenario replays ----------------------------------------------------------
def save_checkpoint(
    path,
    *,
    config,
    engine,
    arrivals_done: int,
    injector=None,
    policy=None,
) -> Path:
    """Atomically write a scenario resume point.

    ``arrivals_done`` is the index of the next arrival to process; the
    arrival list itself is regenerated from ``config`` on resume.
    """
    return write_checkpoint(
        path,
        "scenario",
        scenario=dataclasses.asdict(config),
        arrivals_done=arrivals_done,
        engine=engine_state(engine),
        injector=injector.state_dict() if injector is not None else None,
        policy=policy_state(policy),
    )


def load_checkpoint(path) -> dict:
    """Read a scenario checkpoint (see :func:`read_checkpoint`)."""
    return read_checkpoint(path, "scenario")


def resume_scenario(
    path,
    scheduler=None,
    pool=None,
    testbed_config=None,
    checkpoint_path=None,
    checkpoint_every_s: float | None = None,
):
    """Resume a replay from a checkpoint; returns the completed trace.

    The caller supplies the same ``scheduler`` (policy object) and
    ``pool`` the original run used; the policy's saved state (breaker,
    RNG, captured signatures) is restored via ``load_state_dict`` when
    the policy exposes one.  The resumed run's final trace is
    bit-identical to the uninterrupted run's.
    """
    from repro.cluster.engine import ClusterEngine
    from repro.cluster.scenario import _replay, default_pool, generate_arrivals
    from repro.hardware.config import TestbedConfig
    from repro.hardware.testbed import Testbed

    data = load_checkpoint(path)
    config = scenario_config(data["scenario"])
    workload_pool = list(pool) if pool is not None else default_pool()
    profiles = {p.name: p for p in workload_pool}
    if testbed_config is None:
        testbed_config = TestbedConfig(seed=config.seed)
    saved = require_fields(data["engine"], "engine", ("dt",))
    engine = ClusterEngine(testbed=Testbed(testbed_config), dt=saved["dt"])
    load_engine_state(engine, saved, profiles)
    injector = None
    if data["injector"] is not None:
        (injector,) = restore_injectors(
            [data["injector"]], [engine], getattr(scheduler, "predictor", None)
        )
    restore_policy(scheduler, data["policy"])

    arrivals = generate_arrivals(
        config, pool=pool, random_modes=scheduler is None
    )
    return _replay(
        config,
        scheduler,
        engine,
        arrivals,
        start_index=data["arrivals_done"],
        injector=injector,
        checkpoint_path=checkpoint_path,
        checkpoint_every_s=checkpoint_every_s,
    )
