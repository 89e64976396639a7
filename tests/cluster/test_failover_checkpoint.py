"""Crash-safe checkpointing through fleet failure-domain windows.

The hard case for resume correctness: the last checkpoint before the
scenario ends lands *inside* a node-crash window, so the restored fleet
must come back with the node already DOWN (dead engine, drained
deployments, failover ledger mid-flight) and still replay the remaining
arrivals bit-identically to the uninterrupted run.
"""

import numpy as np
import pytest

from repro.cluster.fleet_scenario import (
    FleetScenarioConfig,
    load_fleet_checkpoint,
    resume_fleet_scenario,
    run_fleet_scenario,
)
from repro.cluster.scenario import ScenarioConfig
from repro.cluster.fleet import LeastLoadedPlacement
from repro.cluster.trace import CHUNK_ROWS
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.runtime import active_plan
from repro.hardware.pool import RemotePoolConfig
from repro.orchestrator.policies import InterferenceThresholdPolicy
from tests.helpers import assert_traces_identical

SCENARIO = ScenarioConfig(duration_s=400.0, spawn_interval=(15.0, 30.0), seed=3)

#: n1 is down from 150 s to the end of the run, so every checkpoint
#: written after 150 s straddles the crash window.
CRASH_PLAN = FaultPlan(
    faults=(
        FaultSpec(kind="node_crash", start_s=150.0, duration_s=240.0,
                  params={"node": "n1"}),
        FaultSpec(kind="pool_device_fail", start_s=200.0, duration_s=120.0,
                  params={"fraction": 0.4}),
    ),
    seed=21,
)


def fleet_config():
    return FleetScenarioConfig(
        scenario=SCENARIO,
        n_nodes=3,
        pool=RemotePoolConfig(regime="pooled"),
    )


def scheduler():
    return LeastLoadedPlacement(InterferenceThresholdPolicy())


def assert_fleets_identical(a, b):
    assert a.now == b.now
    assert a.pool_throttled_ticks == b.pool_throttled_ticks
    assert a.n_nodes == b.n_nodes
    for ea, eb in zip(a.engines, b.engines):
        assert_traces_identical(ea.trace, eb.trace)


def run_with_checkpoint(path):
    with active_plan(CRASH_PLAN):
        return run_fleet_scenario(
            fleet_config(),
            scheduler=scheduler(),
            checkpoint_path=path,
            checkpoint_every_s=100.0,
        )


class TestCrashWindowStraddle:
    def test_last_checkpoint_lands_inside_the_window(self, tmp_path):
        ckpt = tmp_path / "fleet.ckpt.json"
        run_with_checkpoint(ckpt)
        fleet = load_fleet_checkpoint(ckpt)["fleet"]
        assert fleet["now"] > 150.0  # written after the crash onset
        health = fleet["health"]
        assert health is not None
        assert health["statuses"]["n1"] == "down"
        # The dead engine's fail-stop flag survives the round trip too.
        assert fleet["engines"][1]["dead"] is True

    def test_resume_through_crash_window_is_bit_identical(self, tmp_path):
        ckpt = tmp_path / "fleet.ckpt.json"
        full = run_with_checkpoint(ckpt)
        resumed = resume_fleet_scenario(ckpt, scheduler=scheduler())
        assert_fleets_identical(full, resumed)

    def test_resume_preserves_conservation_ledger(self, tmp_path):
        ckpt = tmp_path / "fleet.ckpt.json"
        full = run_with_checkpoint(ckpt)
        resumed = resume_fleet_scenario(ckpt, scheduler=scheduler())
        assert full.submitted > 0
        assert resumed.submitted == full.submitted
        assert resumed.accounting() == full.accounting()
        acc = resumed.accounting()
        assert acc["submitted"] == acc["total"]

    def test_resume_restores_failover_ledger(self, tmp_path):
        ckpt = tmp_path / "fleet.ckpt.json"
        full = run_with_checkpoint(ckpt)
        resumed = resume_fleet_scenario(ckpt, scheduler=scheduler())
        assert resumed.health is not None
        assert resumed.health.counters == full.health.counters
        assert resumed.health.failovers == full.health.failovers
        assert resumed.health.statuses == full.health.statuses
        # The crash window ends at 390 s inside the run: n1 must have
        # rejoined by the end, in both the full and the resumed fleet.
        assert full.health.status("n1").value == "up"
        assert not resumed.engines[1].dead

    def test_resume_restores_pool_device_factors(self, tmp_path):
        ckpt = tmp_path / "fleet.ckpt.json"
        plan = FaultPlan(
            faults=(
                # Still derated when the run (and last checkpoint) ends.
                FaultSpec(kind="pool_device_fail", start_s=150.0,
                          duration_s=10_000.0, params={"fraction": 0.5}),
            ),
            seed=4,
        )
        with active_plan(plan):
            full = run_fleet_scenario(
                fleet_config(),
                scheduler=scheduler(),
                checkpoint_path=ckpt,
                checkpoint_every_s=100.0,
            )
        assert full.pool.device_capacity_factor == pytest.approx(0.5)
        resumed = resume_fleet_scenario(ckpt, scheduler=scheduler())
        # _step_devices reapplies the plan's factors on the first resumed
        # step, so the rebuilt pool converges to the derated state.
        assert resumed.pool.device_capacity_factor == pytest.approx(0.5)
        assert_fleets_identical(full, resumed)


class _Stop(Exception):
    """Ends a resumed replay at its first placement."""


def stop(profile, fleet):
    raise _Stop


#: n1 is down across the trace store's first chunk edge (rows 1,023 and
#: 1,024) and a dropout blanks every node's rows across the second
#: (rows 2,047 and 2,048); the run's only checkpoint comes after both.
CHUNK_EDGE_PLAN = FaultPlan(
    faults=(
        FaultSpec(kind="node_crash", start_s=1000.0, duration_s=60.0,
                  params={"node": "n1"}),
        FaultSpec(kind="telemetry_dropout", start_s=2040.0, duration_s=20.0,
                  params={"probability": 1.0}),
    ),
    seed=8,
)


class TestChunkEdgeRoundTrip:
    def test_restore_and_save_again_is_byte_identical(self, tmp_path):
        ckpt = tmp_path / "fleet.ckpt.json"
        config = FleetScenarioConfig(
            scenario=ScenarioConfig(
                duration_s=2200.0, spawn_interval=(15.0, 30.0), seed=3
            ),
            n_nodes=3,
            pool=RemotePoolConfig(regime="pooled"),
        )
        with active_plan(CHUNK_EDGE_PLAN):
            run_fleet_scenario(
                config, scheduler=scheduler(), checkpoint_path=ckpt,
                checkpoint_every_s=2100.0,
            )
        engines = load_fleet_checkpoint(ckpt)["fleet"]["engines"]
        rows = [np.array(engine["trace"]["rows"]) for engine in engines]
        first, second = CHUNK_ROWS, 2 * CHUNK_ROWS
        assert np.isnan(rows[1][first - 1 : first + 1]).all()
        assert not np.isnan(rows[0][first - 1 : first + 1]).any()
        for node_rows in rows:
            assert len(node_rows) > second
            assert np.isnan(node_rows[second - 1 : second + 1]).all()
        again = tmp_path / "again.json"
        # A resumed replay saves at its first arrival boundary, before
        # placing anything: that file is the restored state re-saved.
        with pytest.raises(_Stop):
            resume_fleet_scenario(
                ckpt, scheduler=stop, checkpoint_path=again,
                checkpoint_every_s=0.0,
            )
        assert again.read_bytes() == ckpt.read_bytes()
