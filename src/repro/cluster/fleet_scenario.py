"""Fleet-level scenario replay: §V-B1 arrivals against a rack.

Reuses :mod:`repro.cluster.scenario`'s arrival generation and replay
shape (advance-to-arrival, place, drain) but drives a whole
:class:`~repro.cluster.fleet.ClusterFleet` under its single fleet clock
— per-engine ``now`` never drifts because only :meth:`ClusterFleet.tick`
advances time.  Fault plans armed via ``repro.faults.runtime`` apply to
every node (a rack-fabric event), each node drawing from its own
deterministic RNG stream; checkpoints go through the shared codec in
:mod:`repro.faults.checkpoint` so a resumed fleet run is bit-identical
to an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro import obs
from repro.cluster.engine import CapacityError, RemoteUnavailableError
from repro.cluster.fleet import ClusterFleet, FleetDecision
from repro.cluster.scenario import (
    Arrival,
    ScenarioConfig,
    default_pool,
    generate_arrivals,
)
from repro.faults.checkpoint import (
    dataclass_from_dict,
    fleet_state,
    load_fleet_state,
    policy_state,
    read_checkpoint,
    require_fields,
    restore_injectors,
    restore_policy,
    scenario_config,
    write_checkpoint,
)
from repro.hardware.config import TestbedConfig
from repro.hardware.pool import RemotePoolConfig
from repro.workloads.base import MemoryMode, WorkloadProfile

__all__ = [
    "FleetScenarioConfig",
    "run_fleet_scenario",
    "save_fleet_checkpoint",
    "load_fleet_checkpoint",
    "resume_fleet_scenario",
]

#: A fleet scheduler maps (profile, fleet) -> FleetDecision at arrival time.
FleetScheduler = Callable[[WorkloadProfile, ClusterFleet], FleetDecision]


@dataclass(frozen=True)
class FleetScenarioConfig:
    """One randomized deployment scenario against an N-node rack."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    n_nodes: int = 2
    #: Rack pool configuration; ``None`` keeps per-node private remote
    #: memory (the pre-pool fleet semantics).
    pool: RemotePoolConfig | None = None

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")


def _fleet_predictor(scheduler) -> object | None:
    """Locate the Predictor behind a two-level scheduler, if any."""
    if scheduler is None:
        return None
    direct = getattr(scheduler, "predictor", None)
    if direct is not None:
        return direct
    return getattr(getattr(scheduler, "mode_policy", None), "predictor", None)


def _attach_injectors(config: FleetScenarioConfig, fleet: ClusterFleet, scheduler):
    """One injector per node when a fault plan is armed (replays only)."""
    if scheduler is None:
        return None
    from repro.faults import runtime as faults_runtime

    plan = faults_runtime.current_plan()
    if plan is None:
        return None
    from repro.faults.injector import FaultInjector

    predictor = _fleet_predictor(scheduler)
    injectors = []
    for index, engine in enumerate(fleet.engines):
        injector = FaultInjector(
            plan, scenario_seed=config.scenario.seed + index
        )
        # The (shared) predictor chaos shim is installed once, via the
        # first node's injector; link/telemetry effects stay per node.
        injector.attach(engine, predictor=predictor if index == 0 else None)
        injectors.append(injector)
    return injectors


def _attach_health(fleet: ClusterFleet, plan, scheduler):
    """Wire the health manager when the plan has fleet-side windows.

    Also cross-validates node targets against the actual fleet shape —
    a typo'd ``node`` label fails loudly here instead of silently never
    firing.
    """
    from repro.faults.plan import FLEET_KINDS

    if not any(spec.kind in FLEET_KINDS for spec in plan.faults):
        return None
    from repro.cluster.failover import FleetHealthManager

    plan.validate(fleet.n_nodes)
    manager = FleetHealthManager(plan, scheduler=scheduler)
    fleet.health = manager
    return manager


def _place_on_node(fleet: ClusterFleet, node: int, arrival: Arrival,
                   mode: MemoryMode) -> bool:
    """Single-node placement semantics, pinned to one fleet node."""
    engine = fleet.engines[node]
    if engine.journey is not None:
        engine.journey.hop(arrival.profile.name, fleet.now, "placement",
                           fleet.now, mode=mode.value)
    try:
        engine.deploy(arrival.profile, mode, duration_s=arrival.duration_s,
                      decided_s=fleet.now)
    except RemoteUnavailableError:
        engine.queue_remote(arrival.profile, duration_s=arrival.duration_s,
                            decided_s=fleet.now)
    except CapacityError:
        return False
    return True


def run_fleet_scenario(
    config: FleetScenarioConfig,
    scheduler: FleetScheduler | None = None,
    workload_pool: Sequence[WorkloadProfile] | None = None,
    testbed_config: TestbedConfig | None = None,
    fleet: ClusterFleet | None = None,
    checkpoint_path=None,
    checkpoint_every_s: float | None = None,
) -> ClusterFleet:
    """Simulate one fleet scenario end to end; returns the fleet.

    With ``scheduler=None`` (trace collection) arrivals keep their
    generator-chosen memory mode and are assigned round-robin across
    nodes — a deterministic, policy-free baseline.  With a scheduler,
    each arrival is placed by the two-level decision (node + mode); a
    :class:`RemoteUnavailableError` from the chosen node parks the
    arrival in that node's retry queue, and arrivals that fit nowhere
    are dropped, mirroring :func:`repro.cluster.scenario.run_scenario`.
    """
    if fleet is None:
        base = testbed_config if testbed_config is not None else TestbedConfig(
            seed=config.scenario.seed
        )
        fleet = ClusterFleet(
            n_nodes=config.n_nodes, testbed_config=base, pool=config.pool
        )
    arrivals = generate_arrivals(
        config.scenario, pool=workload_pool, random_modes=scheduler is None
    )
    injectors = _attach_injectors(config, fleet, scheduler)
    if injectors:
        _attach_health(fleet, injectors[0].plan, scheduler)
    return _fleet_replay(
        config,
        scheduler,
        fleet,
        arrivals,
        start_index=0,
        injectors=injectors,
        checkpoint_path=checkpoint_path,
        checkpoint_every_s=checkpoint_every_s,
    )


def _fleet_replay(
    config: FleetScenarioConfig,
    scheduler: FleetScheduler | None,
    fleet: ClusterFleet,
    arrivals: list[Arrival],
    start_index: int = 0,
    injectors=None,
    checkpoint_path=None,
    checkpoint_every_s: float | None = None,
) -> ClusterFleet:
    """Drive ``arrivals[start_index:]`` through the fleet (resumable)."""
    scenario = config.scenario
    try:
        with obs.tracer().span(
            "fleet_scenario",
            seed=scenario.seed,
            n_nodes=fleet.n_nodes,
            duration_s=scenario.duration_s,
            arrivals=len(arrivals),
            regime=fleet.pool.config.regime.value if fleet.pool else "none",
            scheduler=getattr(scheduler, "name", None)
            or (scheduler.__class__.__name__ if scheduler is not None else "round-robin"),
        ) if obs.enabled() else obs.NULL_SPAN:
            last_checkpoint_s = fleet.now
            for index in range(start_index, len(arrivals)):
                arrival = arrivals[index]
                gap = arrival.time - fleet.now
                if gap > 0:
                    fleet.run_for(gap)
                if (
                    checkpoint_path is not None
                    and checkpoint_every_s is not None
                    and fleet.now - last_checkpoint_s >= checkpoint_every_s
                ):
                    save_fleet_checkpoint(
                        checkpoint_path,
                        config=config,
                        fleet=fleet,
                        arrivals_done=index,
                        injectors=injectors,
                        policy=scheduler,
                    )
                    last_checkpoint_s = fleet.now
                if fleet.journal is not None:
                    # Journey hop 1: the arrival enters the fleet queue
                    # (no node yet — placement picks one next).
                    fleet.journal.hop(
                        arrival.profile.name, fleet.now, "queued", fleet.now
                    )
                if scheduler is not None:
                    try:
                        decision = scheduler(arrival.profile, fleet)
                    except CapacityError:
                        continue  # fits nowhere in the fleet: dropped
                    try:
                        fleet.deploy(
                            arrival.profile,
                            decision,
                            duration_s=arrival.duration_s,
                            decided_s=fleet.now,
                        )
                    except RemoteUnavailableError:
                        fleet.engines[decision.node_index].queue_remote(
                            arrival.profile,
                            duration_s=arrival.duration_s,
                            decided_s=fleet.now,
                        )
                    except CapacityError:
                        continue
                    # Deployed or parked: either way the arrival is now
                    # the fleet's responsibility (conservation ledger).
                    fleet.note_submitted()
                else:
                    node = index % fleet.n_nodes
                    mode = arrival.mode if arrival.mode is not None else MemoryMode.LOCAL
                    if _place_on_node(fleet, node, arrival, mode) or (
                        _place_on_node(fleet, node, arrival, mode.other)
                    ):
                        fleet.note_submitted()

            remaining = scenario.duration_s - fleet.now
            if remaining > 0:
                fleet.run_for(remaining)
            if scenario.drain:
                fleet.run_until_idle()
    finally:
        if injectors:
            for injector in injectors:
                injector.detach()
    return fleet


# -- checkpointing -------------------------------------------------------------
def save_fleet_checkpoint(
    path,
    *,
    config: FleetScenarioConfig,
    fleet: ClusterFleet,
    arrivals_done: int,
    injectors=None,
    policy=None,
) -> Path:
    """Atomically write a fleet resume point (all nodes + fleet clock)."""
    return write_checkpoint(
        path,
        "fleet",
        config=dataclasses.asdict(config),
        arrivals_done=arrivals_done,
        fleet=fleet_state(fleet),
        injectors=(
            [injector.state_dict() for injector in injectors]
            if injectors
            else None
        ),
        policy=policy_state(policy),
    )


def load_fleet_checkpoint(path) -> dict:
    """Read a fleet checkpoint (see :func:`repro.faults.checkpoint.read_checkpoint`)."""
    return read_checkpoint(path, "fleet")


def _pool_config(data) -> RemotePoolConfig | None:
    if data is None:
        return None
    return dataclass_from_dict(RemotePoolConfig, data, "pool config")


def resume_fleet_scenario(
    path,
    scheduler: FleetScheduler | None = None,
    workload_pool: Sequence[WorkloadProfile] | None = None,
    testbed_config: TestbedConfig | None = None,
    checkpoint_path=None,
    checkpoint_every_s: float | None = None,
) -> ClusterFleet:
    """Resume a fleet replay; the completed run is bit-identical.

    The fleet skeleton (per-node testbed configs, tick, pool wiring,
    fits hooks) is rebuilt from the checkpointed config exactly as
    :func:`run_fleet_scenario` would, then each node's engine state is
    loaded into it in place — so counter-noise RNGs, retry queues and
    traces resume mid-stream.
    """
    data = load_fleet_checkpoint(path)
    config = dataclass_from_dict(
        FleetScenarioConfig, data["config"], "fleet config",
        scenario=scenario_config, pool=_pool_config,
    )
    pool_profiles = (
        list(workload_pool) if workload_pool is not None else default_pool()
    )
    profiles = {p.name: p for p in pool_profiles}
    base = testbed_config if testbed_config is not None else TestbedConfig(
        seed=config.scenario.seed
    )
    state = require_fields(data["fleet"], "fleet", ("dt",))
    fleet = ClusterFleet(
        n_nodes=config.n_nodes, testbed_config=base, dt=state["dt"],
        pool=config.pool,
    )
    injectors: list = []

    def attach(fleet: ClusterFleet) -> None:
        if data["injectors"] is not None:
            injectors.extend(restore_injectors(
                data["injectors"], fleet.engines, _fleet_predictor(scheduler)
            ))
            _attach_health(fleet, injectors[0].plan, scheduler)

    load_fleet_state(fleet, state, profiles, attach=attach)
    restore_policy(scheduler, data["policy"])

    arrivals = generate_arrivals(
        config.scenario, pool=workload_pool, random_modes=scheduler is None
    )
    return _fleet_replay(
        config,
        scheduler,
        fleet,
        arrivals,
        start_index=data["arrivals_done"],
        injectors=injectors or None,
        checkpoint_path=checkpoint_path,
        checkpoint_every_s=checkpoint_every_s,
    )
