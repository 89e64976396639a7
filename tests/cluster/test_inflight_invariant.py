"""Engines hold only in-flight work, in placement order.

A two-node pooled rack with a health manager runs short drawn step
sequences: deploys, ticks, forced completes, a node crash that the
detector drains into the failover queue, a pool device failure that
evicts remote segments, and checkpoint save → restore.  After every
tick each engine's ``deployments`` are all running, in strictly
increasing ``app_id`` order; the conservation ledger balances; and a
fleet restored from the checkpoint re-saves byte-identically.  After
every step, and on every restored fleet, each engine's kept demand
aggregate equals a from-scratch fold of its list.
"""

import dataclasses
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import CapacityError, ClusterFleet, FleetHealthManager
from repro.cluster.fleet import FleetDecision
from repro.cluster.scenario import default_pool
from repro.faults.checkpoint import fleet_state, load_fleet_state
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hardware.pool import RemotePoolConfig
from repro.hardware.testbed import ResourceDemand
from repro.workloads import MemoryMode

PROFILES = {p.name: p for p in default_pool()}
#: Four 8 GB remote segments fill the pool, so losing half of its
#: devices evicts.
POOL = RemotePoolConfig(regime="pooled", capacity_gb=32.0)
#: Missed heartbeats until the detector declares a node down and
#: drains it (FailoverConfig's default ``down_after``).
DOWN_AFTER = 3

DEPLOY = st.tuples(
    st.just("deploy"),
    st.sampled_from(["scan", "sort", "lr", "gmm", "redis", "ibench-memBw"]),
    st.integers(0, 1),
    st.sampled_from([MemoryMode.LOCAL, MemoryMode.REMOTE]),
)
STEPS = st.lists(
    st.one_of(
        DEPLOY,
        st.tuples(st.just("tick"), st.integers(1, 8)),
        st.tuples(st.just("complete"), st.integers(0, 7)),
        # Crash node n<i> for a window of the given length.
        st.tuples(st.just("crash"), st.integers(0, 1), st.integers(1, 12)),
        # Lose the given fraction of the pool's devices for a window.
        st.tuples(st.just("evict"), st.sampled_from([0.5, 0.75]),
                  st.integers(1, 12)),
        st.tuples(st.just("save")),
    ),
    min_size=1,
    max_size=30,
)


def ticks_of(step) -> int:
    """Fleet ticks a step runs: a crash runs until the node is drained."""
    return {"tick": step[-1], "crash": DOWN_AFTER, "evict": 1}.get(step[0], 0)


def plan_for(steps) -> FaultPlan:
    """Fault windows opening at the fleet time each crash/evict step runs."""
    faults, clock = [], 0.0
    for step in steps:
        if step[0] == "crash":
            faults.append(FaultSpec(
                kind="node_crash", start_s=clock, duration_s=float(step[2]),
                params={"node": f"n{step[1]}"},
            ))
        elif step[0] == "evict":
            faults.append(FaultSpec(
                kind="pool_device_fail", start_s=clock,
                duration_s=float(step[2]), params={"fraction": step[1]},
            ))
        clock += ticks_of(step)
    return FaultPlan(faults=tuple(faults), seed=4)


def build(plan) -> ClusterFleet:
    fleet = ClusterFleet(n_nodes=2, pool=POOL)
    fleet.health = FleetHealthManager(plan)
    return fleet


def restore(fleet, plan) -> ClusterFleet:
    """Save ``fleet``, load it into a fresh skeleton, check the re-save."""
    saved = json.dumps(fleet_state(fleet))
    restored = build(plan)
    load_fleet_state(restored, json.loads(saved), PROFILES)
    assert json.dumps(fleet_state(restored)) == saved
    check_aggregate(restored)
    return restored


def check_aggregate(fleet) -> None:
    """Each engine's aggregate is its list's left fold, bit for bit."""
    for engine in fleet.engines:
        for field in dataclasses.fields(ResourceDemand):
            folded = 0.0
            for deployment in engine.deployments:
                demand = deployment.profile.demand(deployment.mode)
                folded = folded + getattr(demand, field.name)
            kept = getattr(engine.inflight_demand, field.name)
            assert kept == folded, (engine.node_label, field.name)
        remote = sum(d.mode is MemoryMode.REMOTE for d in engine.deployments)
        assert engine.inflight_remote == remote, engine.node_label


def check(fleet, plan) -> None:
    for engine in fleet.engines:
        ids = [d.app_id for d in engine.deployments]
        assert all(d.running for d in engine.deployments), ids
        assert all(a < b for a, b in zip(ids, ids[1:])), ids
    ledger = fleet.accounting()
    assert ledger["submitted"] == ledger["total"], ledger
    restore(fleet, plan)


class TestInFlightInvariant:
    @given(steps=STEPS)
    @example(steps=[
        ("deploy", "scan", 0, MemoryMode.LOCAL),
        ("complete", 0),
        ("tick", 2),
    ])
    @example(steps=[
        ("deploy", "lr", 1, MemoryMode.REMOTE),
        ("deploy", "gmm", 1, MemoryMode.REMOTE),
        ("deploy", "sort", 0, MemoryMode.REMOTE),
        ("deploy", "redis", 1, MemoryMode.LOCAL),
        ("complete", 3),
        ("evict", 0.75, 4),
        ("crash", 1, 12),
        ("save",),
        ("tick", 8),
    ])
    @settings(max_examples=60, deadline=None)
    def test_engines_hold_only_running_work(self, steps):
        plan = plan_for(steps)
        fleet = build(plan)
        for step in steps:
            if step[0] == "deploy":
                _, app, node, mode = step
                try:
                    fleet.deploy(PROFILES[app], FleetDecision(node, mode))
                except CapacityError:
                    continue
                fleet.note_submitted()
            elif step[0] == "complete":
                running = [d for e in fleet.engines for d in e.running]
                if running:
                    running[step[1] % len(running)].complete_early()
            elif step[0] == "save":
                fleet = restore(fleet, plan)
            check_aggregate(fleet)
            for _ in range(ticks_of(step)):
                fleet.tick()
                check_aggregate(fleet)
                check(fleet, plan)
