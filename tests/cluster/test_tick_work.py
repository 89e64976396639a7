"""The work of an engine tick and a fleet tick, counted exactly.

Two seeded replays run under counting wrappers around the layers a tick
touches: a congested single-node scenario, and perfbench's fleet-rack
shape (eight pooled nodes under two-level placement), shortened.  The
counts are deterministic for the seed, so each relation is asserted with
``==``: a tick that walks finished work, a sum over the running set
rebuilt on a read, a pressure resolved although its inputs did not
change, a slowdown or counter row derived again under the same
pressure, a counter row converted on its way into the trace, or a node
ranked twice each break one.  The test works out on its own which reads
saw changed inputs and which advances and samples a new pressure.
"""

import collections
import functools

import pytest

from repro.cluster.deployment import Deployment
from repro.cluster.engine import ClusterEngine
from repro.cluster.fleet import ClusterFleet, PoolAwarePlacement
from repro.cluster.fleet_scenario import FleetScenarioConfig, run_fleet_scenario
from repro.cluster.scenario import ScenarioConfig, run_scenario
from repro.experiments.fleet_scaling import FABRIC_OVERSUB
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.runtime import active_plan
from repro.hardware.config import TestbedConfig
from repro.hardware.counters import CounterSynthesizer, PerfCounters
from repro.hardware.pool import PoolRegime, RemotePoolConfig
from repro.hardware.testbed import ResourceDemand, Testbed
from repro.orchestrator.policies import InterferenceThresholdPolicy
from repro.workloads.base import WorkloadKind, WorkloadProfile

FLEET_NODES = 8


def count_work(run):
    """Call ``run()`` under class-level counting wrappers; return the counts.

    Besides one count per wrapped call that returns, ``in_flight`` sums
    the deployments in flight as each engine tick starts, ``rebuilds``
    lists the size of each ``set_inflight`` list, ``live`` sums the live
    nodes at each ranking, and ``mode_decisions`` counts the BE/LC
    decisions of the mode policy.  ``changed_reads`` counts the pressure
    reads whose engine inputs (the demand aggregate object, the pool
    capacity factor, the link fault) differ from that engine's previous
    read; ``new_pressure_advances`` and ``new_pressure_samples`` count
    the advances and counter samples handed a pressure object other than
    the one that deployment or testbed saw last.
    """
    counts = collections.Counter()
    counts["rebuilds"] = []
    patch = pytest.MonkeyPatch()
    # Each last-seen entry holds its objects, so no identity is reused.
    last_inputs, last_advanced, last_sampled = {}, {}, {}

    def counted(name, original, note=None):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            result = original(*args, **kwargs)
            counts[name] += 1
            return result

        return wrapper

    def count(owner, attr, note=None):
        name = f"{owner.__name__}.{attr}"
        patch.setattr(owner, attr, counted(name, getattr(owner, attr), note))

    def in_flight(engine):
        counts["in_flight"] += len(engine.deployments)

    def rebuild(engine, deployments):
        counts["rebuilds"].append(len(deployments))

    def live(placement, fleet):
        counts["live"] += sum(not engine.dead for engine in fleet.engines)

    def mode_decision(policy, profile, engine):
        if profile.kind is not WorkloadKind.INTERFERENCE:
            counts["mode_decisions"] += 1

    def read(engine):
        inputs = (engine.inflight_demand, engine.pool_capacity_factor, engine.link_fault)
        previous = last_inputs.get(engine)
        if (
            previous is None
            or previous[0] is not inputs[0]
            or previous[1:] != inputs[1:]
        ):
            counts["changed_reads"] += 1
        last_inputs[engine] = inputs

    def advance(deployment, now, dt, pressure):
        previous = last_advanced.get(id(deployment))
        if previous is None or previous[1] is not pressure:
            counts["new_pressure_advances"] += 1
        last_advanced[id(deployment)] = (deployment, pressure)

    def sample(testbed, pressure):
        if last_sampled.get(testbed) is not pressure:
            counts["new_pressure_samples"] += 1
        last_sampled[testbed] = pressure

    running = counted("Deployment.running", Deployment.running.fget)
    patch.setattr(Deployment, "running", property(running))
    count(Deployment, "advance", advance)
    count(Deployment, "_finish")
    count(WorkloadProfile, "slowdown")
    count(PerfCounters, "from_array")
    count(PerfCounters, "as_array")
    count(CounterSynthesizer, "mean_row")
    count(ClusterEngine, "__init__")
    count(ClusterEngine, "tick", in_flight)
    count(ClusterEngine, "_tick_dead")
    count(ClusterEngine, "deploy")
    count(ClusterEngine, "set_inflight", rebuild)
    count(ClusterEngine, "current_pressure", read)
    count(ClusterEngine, "pressure_with")
    count(Testbed, "resolve")
    count(Testbed, "sample_counters", sample)
    count(ResourceDemand, "__init__")
    count(ClusterFleet, "tick")
    count(ClusterFleet, "_arbitrate")
    count(ClusterFleet, "node_load")
    count(PoolAwarePlacement, "node_order", live)
    count(InterferenceThresholdPolicy, "decide", mode_decision)
    try:
        run()
    finally:
        patch.undo()
    return counts


@pytest.fixture(scope="module")
def engine_run():
    """Counts of a 30-minute congested scenario replayed without a scheduler."""
    return count_work(lambda: run_scenario(
        ScenarioConfig(duration_s=1800.0, spawn_interval=(5.0, 20.0), seed=0)
    ))


@pytest.fixture(scope="module")
def fleet_run():
    """Counts of a 15-minute replay of perfbench's pooled 8-node rack."""
    seed = 2_000_000
    base = TestbedConfig(seed=seed)
    pool = RemotePoolConfig(
        capacity_gb=base.node.remote_gb * FLEET_NODES,
        aggregate_bw_gbps=base.link.capacity_gbps * FLEET_NODES * FABRIC_OVERSUB,
        regime=PoolRegime.POOLED,
    )
    scenario = ScenarioConfig(
        duration_s=900.0,
        spawn_interval=(5.0 / FLEET_NODES, 40.0 / FLEET_NODES),
        seed=seed,
    )
    config = FleetScenarioConfig(
        scenario=scenario, n_nodes=FLEET_NODES, pool=pool
    )
    return count_work(lambda: run_fleet_scenario(
        config, scheduler=PoolAwarePlacement(InterferenceThresholdPolicy())
    ))


@pytest.mark.parametrize("half", ["engine_run", "fleet_run"])
def test_engine_work_per_tick_and_placement(half, request):
    counts = request.getfixturevalue(half)
    ticks = counts["ClusterEngine.tick"]
    placements = counts["ClusterEngine.deploy"]
    advances = counts["Deployment.advance"]
    finishes = counts["Deployment._finish"]
    assert ticks > 0 and placements > 100 and finishes > 100
    assert counts["Testbed.sample_counters"] == ticks
    # A tick, a node-load read and a BE/LC mode decision read the
    # engine's pressure once each.
    assert counts["ClusterEngine.current_pressure"] == (
        ticks + counts["ClusterFleet.node_load"] + counts["mode_decisions"]
    )
    # A read resolves only when its inputs changed since the engine's
    # last read; a hypothetical placement always resolves.
    assert counts["Testbed.resolve"] == (
        counts["ClusterEngine.pressure_with"] + counts["changed_reads"]
    )
    assert counts["changed_reads"] < ticks
    # An engine starts its aggregate at zero; a placement and a
    # hypothetical placement each add one demand to it; a rebuild folds
    # its n demands from the first (n - 1 sums), an empty one is zero.
    assert counts["ResourceDemand.__init__"] == (
        counts["ClusterEngine.__init__"]
        + placements
        + counts["ClusterEngine.pressure_with"]
        + sum(n - 1 if n else 1 for n in counts["rebuilds"])
    )
    # One advance per deployment in flight as the tick starts: a finished
    # deployment leaves its engine in the tick it finishes.
    assert advances == counts["in_flight"]
    # One slowdown per advance under a pressure that deployment has not
    # seen last: a latency-critical app's tail-latency sample reuses it.
    assert counts["WorkloadProfile.slowdown"] == counts["new_pressure_advances"]
    assert counts["new_pressure_advances"] < advances
    # One noise-free counter row per tick whose pressure changed.
    assert counts["CounterSynthesizer.mean_row"] == counts["new_pressure_samples"]
    # The advance's guard and the tick's finish test read finish_time;
    # only the record's guard reads the property.
    assert counts["Deployment.running"] == finishes
    # Counter rows go from the synthesizer into the trace as they are,
    # with no named view built or unpacked on the way.
    assert counts["PerfCounters.from_array"] == 0
    assert counts["PerfCounters.as_array"] == 0


def test_dead_ticks_resolve_nothing():
    """A crashed node's tick advances its clock and records a NaN gap:
    it samples no counters and resolves no pressure."""
    seed = 6
    base = TestbedConfig(seed=seed)
    pool = RemotePoolConfig(
        capacity_gb=base.node.remote_gb * 3,
        aggregate_bw_gbps=base.link.capacity_gbps * 3 * 0.3,
        regime=PoolRegime.POOLED,
    )
    scenario = ScenarioConfig(
        duration_s=400.0, spawn_interval=(5.0 / 3, 20.0 / 3), seed=seed
    )
    config = FleetScenarioConfig(scenario=scenario, n_nodes=3, pool=pool)
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
        counts = count_work(lambda: run_fleet_scenario(
            config, scheduler=PoolAwarePlacement(InterferenceThresholdPolicy())
        ))
    dead = counts["ClusterEngine._tick_dead"]
    assert dead == 80
    assert counts["Testbed.sample_counters"] == counts["ClusterEngine.tick"] - dead
    assert counts["Testbed.resolve"] == (
        counts["ClusterEngine.pressure_with"] + counts["changed_reads"]
    )


def test_fleet_work_per_tick_and_ranking(fleet_run):
    fleet_ticks = fleet_run["ClusterFleet.tick"]
    assert fleet_ticks > 0 and fleet_run["mode_decisions"] > 0
    assert fleet_run["ClusterEngine.tick"] == FLEET_NODES * fleet_ticks
    assert fleet_run["ClusterFleet._arbitrate"] == fleet_ticks
    # Each ranking reads every live node's load once.
    assert fleet_run["ClusterFleet.node_load"] == fleet_run["live"]
