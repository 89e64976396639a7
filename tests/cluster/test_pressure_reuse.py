"""The engine's kept pressure against a fresh resolve, on every read.

``ClusterEngine.current_pressure`` resolves only when one of its inputs
changed since the last read: the demand aggregate, the pool capacity
factor or the link fault a fault injector writes.  Every read below is
checked against ``Testbed.resolve`` of the engine's explicit inputs,
field by field with ``==``, and the engine's link fault against the
plan's active window at the engine's clock.  Each run also shows that
some read changed only the input it is there to exercise, so an engine
that forgot to watch that input would serve a stale pressure and fail.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.engine import ClusterEngine
from repro.cluster.fleet import PoolAwarePlacement
from repro.cluster.fleet_scenario import FleetScenarioConfig, run_fleet_scenario
from repro.cluster.scenario import ScenarioConfig, run_scenario
from repro.faults.checkpoint import load_checkpoint, resume_scenario
from repro.faults.injector import FaultInjector
from repro.faults.plan import LINK_KINDS, FaultPlan, FaultSpec
from repro.faults.runtime import active_plan
from repro.hardware import Testbed, TestbedConfig
from repro.hardware.pool import PoolRegime, RemotePoolConfig
from repro.hardware.testbed import SystemPressure
from repro.orchestrator.policies import InterferenceThresholdPolicy, RandomPolicy
from repro.workloads import MemoryMode, ibench_profile
from tests.helpers import assert_traces_identical

HEALTHY = (1.0, 1.0)

#: Link windows with edges on and off tick boundaries, an outage that
#: overlaps a degrade listed before it (the outage wins, then hands over
#: to the degrade), and telemetry faults beside them.
LINK_PLAN = FaultPlan(
    faults=(
        FaultSpec(kind="link_degrade", start_s=10.0, duration_s=30.5,
                  params={"capacity_factor": 0.5, "latency_factor": 1.5}),
        FaultSpec(kind="link_degrade", start_s=80.0, duration_s=30.0,
                  params={"capacity_factor": 0.25}),
        FaultSpec(kind="link_outage", start_s=60.5, duration_s=29.5),
        FaultSpec(kind="telemetry_corrupt", start_s=5.0, duration_s=50.0,
                  params={"probability": 0.3}),
    ),
    seed=11,
)


def expected_fault(plan, now):
    """The ``(capacity, latency)`` factors the plan's link windows set:
    an active outage's, else the first active degrade's."""
    spec = plan.active(("link_outage",), now) or plan.active(LINK_KINDS, now)
    if spec is None:
        return HEALTHY
    capacity = (
        0.0 if spec.kind == "link_outage" else spec.param("capacity_factor", 1.0)
    )
    return (capacity, spec.param("latency_factor", 1.0))


def injector_plan(engine):
    """The plan of the fault injector hooked on ``engine``, if any."""
    for hook in engine._tick_hooks:
        owner = getattr(hook, "__self__", None)
        if isinstance(owner, FaultInjector):
            return owner.plan
    return None


class Reads:
    """Every ``current_pressure`` read, checked as it returns.

    ``changed`` counts, per input, the reads at which that input alone
    differed from the same engine's previous read.
    """

    def __init__(self):
        self.count = 0
        self.faults = set()
        self.pool_factors = set()
        self.changed = {"demand": 0, "pool": 0, "fault": 0}
        self._last = {}

    def check(self, engine, pressure):
        capacity, latency = engine.link_fault
        fresh = engine.testbed.resolve(
            [engine.inflight_demand],
            link_capacity_factor=engine.pool_capacity_factor * capacity,
            link_latency_factor=latency,
        )
        for field in dataclasses.fields(SystemPressure):
            assert getattr(pressure, field.name) == getattr(fresh, field.name), (
                f"{field.name} at t={engine.now}"
            )
        plan = injector_plan(engine)
        expected = expected_fault(plan, engine.now) if plan is not None else HEALTHY
        assert engine.link_fault == expected, f"link fault at t={engine.now}"

        inputs = (engine.inflight_demand, engine.pool_capacity_factor, engine.link_fault)
        previous = self._last.get(engine)
        if previous is not None:
            same = (
                previous[0] is inputs[0],
                previous[1] == inputs[1],
                previous[2] == inputs[2],
            )
            for name, index in (("demand", 0), ("pool", 1), ("fault", 2)):
                if not same[index] and all(same[:index] + same[index + 1:]):
                    self.changed[name] += 1
        self._last[engine] = inputs
        self.count += 1
        self.faults.add(engine.link_fault)
        self.pool_factors.add(engine.pool_capacity_factor)


@pytest.fixture
def reads(monkeypatch):
    log = Reads()
    original = ClusterEngine.current_pressure

    def checked(engine):
        pressure = original(engine)
        log.check(engine, pressure)
        return pressure

    monkeypatch.setattr(ClusterEngine, "current_pressure", checked)
    return log


def test_fault_edges_on_a_steady_engine(reads):
    # Two remote trashers that outlast the plan: across every link edge
    # the demand aggregate stays the same object.
    engine = ClusterEngine(testbed=Testbed(TestbedConfig(seed=3)))
    engine.deploy(ibench_profile("memBw"), MemoryMode.REMOTE, duration_s=500.0)
    engine.deploy(ibench_profile("l3"), MemoryMode.REMOTE, duration_s=500.0)
    FaultInjector(LINK_PLAN, scenario_seed=3).attach(engine)
    for _ in range(150):
        engine.tick()
        engine.current_pressure()
    assert reads.faults == {HEALTHY, (0.5, 1.5), (0.0, 1.0), (0.25, 1.0)}
    # The fault changes at 10 s, 41 s, 61 s, 90 s (the outage hands over
    # to the second degrade) and 110 s.
    assert reads.changed["fault"] == 5
    assert reads.changed["demand"] == 0


def test_scenario_replay_under_link_faults(reads):
    with active_plan(LINK_PLAN):
        run_scenario(
            ScenarioConfig(duration_s=300.0, spawn_interval=(5.0, 20.0), seed=2),
            scheduler=InterferenceThresholdPolicy(),
        )
    assert reads.changed["demand"] > 0 and reads.changed["fault"] > 0
    assert {(0.5, 1.5), (0.0, 1.0), (0.25, 1.0)} <= reads.faults


def rack_config(nodes, duration_s, seed):
    base = TestbedConfig(seed=seed)
    pool = RemotePoolConfig(
        capacity_gb=base.node.remote_gb * nodes,
        aggregate_bw_gbps=base.link.capacity_gbps * nodes * 0.3,
        regime=PoolRegime.POOLED,
    )
    scenario = ScenarioConfig(
        duration_s=duration_s,
        spawn_interval=(5.0 / nodes, 20.0 / nodes),
        seed=seed,
    )
    return FleetScenarioConfig(scenario=scenario, n_nodes=nodes, pool=pool)


def test_throttled_pooled_rack(reads):
    fleet = run_fleet_scenario(
        rack_config(nodes=4, duration_s=400.0, seed=5),
        scheduler=PoolAwarePlacement(InterferenceThresholdPolicy()),
    )
    assert fleet.pool_throttled_ticks > 0
    assert min(reads.pool_factors) < 1.0
    assert reads.changed["pool"] > 0 and reads.changed["demand"] > 0


def test_node_crash_dead_ticks_and_failover_drain(reads):
    plan = FaultPlan(
        faults=(
            FaultSpec(kind="node_crash", start_s=100.0, duration_s=80.0,
                      params={"node": "n1"}),
            FaultSpec(kind="link_degrade", start_s=120.5, duration_s=100.0,
                      params={"capacity_factor": 0.5}),
        ),
        seed=4,
    )
    with active_plan(plan):
        fleet = run_fleet_scenario(
            rack_config(nodes=3, duration_s=400.0, seed=6),
            scheduler=PoolAwarePlacement(InterferenceThresholdPolicy()),
        )
    crashed = fleet.engines[1]
    assert any(count for (node, _), count in fleet.health.failovers.items() if node == "n1")
    # The crashed node's telemetry holds its dead ticks' NaN gap.
    assert np.isnan(crashed.trace.metrics).all(axis=1).any()
    assert reads.changed["fault"] > 0
    assert (0.5, 1.0) in reads.faults


def test_restore_inside_a_fault_window(reads, tmp_path):
    plan = FaultPlan(
        faults=(
            FaultSpec(kind="link_degrade", start_s=50.5, duration_s=340.0,
                      params={"capacity_factor": 0.4, "latency_factor": 1.2}),
            FaultSpec(kind="link_outage", start_s=320.0, duration_s=30.0),
        ),
        seed=9,
    )
    config = ScenarioConfig(duration_s=400.0, spawn_interval=(15.0, 30.0), seed=3)
    ckpt = tmp_path / "ckpt.json"
    with active_plan(plan):
        full = run_scenario(
            config,
            scheduler=RandomPolicy(seed=5),
            checkpoint_path=ckpt,
            checkpoint_every_s=100.0,
        )
    saved_at = load_checkpoint(ckpt)["engine"]["now"]
    assert plan.active(LINK_KINDS, saved_at) is not None
    before = reads.count
    resumed = resume_scenario(ckpt, scheduler=RandomPolicy(seed=5))
    assert reads.count > before
    assert_traces_identical(full, resumed)
