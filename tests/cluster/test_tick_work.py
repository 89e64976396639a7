"""The work of an engine tick and a fleet tick, counted exactly.

Two seeded replays run under counting wrappers around the layers a tick
touches: a congested single-node scenario, and perfbench's fleet-rack
shape (eight pooled nodes under two-level placement), shortened.  The
counts are deterministic for the seed, so each relation is asserted with
``==``: a tick that walks finished work, a sum over the running set
rebuilt on a read, a slowdown evaluated twice for one app, a counter
row converted on its way into the trace, or a node ranked twice each
break one.
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
from repro.hardware.config import TestbedConfig
from repro.hardware.counters import PerfCounters
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
    decisions of the mode policy.
    """
    counts = collections.Counter()
    counts["rebuilds"] = []
    patch = pytest.MonkeyPatch()

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

    running = counted("Deployment.running", Deployment.running.fget)
    patch.setattr(Deployment, "running", property(running))
    count(Deployment, "advance")
    count(Deployment, "_finish")
    count(WorkloadProfile, "slowdown")
    count(PerfCounters, "from_array")
    count(PerfCounters, "as_array")
    count(ClusterEngine, "__init__")
    count(ClusterEngine, "tick", in_flight)
    count(ClusterEngine, "deploy")
    count(ClusterEngine, "set_inflight", rebuild)
    count(ClusterEngine, "pressure_with")
    count(Testbed, "resolve")
    count(Testbed, "sample_counters")
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
    # A tick resolves its kept aggregate once; a hypothetical placement,
    # a node-load read and a BE/LC mode decision resolve one pressure each.
    assert counts["Testbed.resolve"] == (
        ticks
        + counts["ClusterEngine.pressure_with"]
        + counts["ClusterFleet.node_load"]
        + counts["mode_decisions"]
    )
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
    # One slowdown per advance: a latency-critical app's tail-latency
    # sample reuses it.
    assert counts["WorkloadProfile.slowdown"] == advances
    # The advance's guard and the tick's finish test read finish_time;
    # only the record's guard reads the property.
    assert counts["Deployment.running"] == finishes
    # Counter rows go from the synthesizer into the trace as they are,
    # with no named view built or unpacked on the way.
    assert counts["PerfCounters.from_array"] == 0
    assert counts["PerfCounters.as_array"] == 0


def test_fleet_work_per_tick_and_ranking(fleet_run):
    fleet_ticks = fleet_run["ClusterFleet.tick"]
    assert fleet_ticks > 0 and fleet_run["mode_decisions"] > 0
    assert fleet_run["ClusterEngine.tick"] == FLEET_NODES * fleet_ticks
    assert fleet_run["ClusterFleet._arbitrate"] == fleet_ticks
    # Each ranking reads every live node's load once.
    assert fleet_run["ClusterFleet.node_load"] == fleet_run["live"]
