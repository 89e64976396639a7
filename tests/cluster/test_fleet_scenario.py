"""Fleet scenario runner: determinism, faults, checkpoint round-trip."""

import json

import pytest

from repro.cluster.fleet import ClusterFleet, FleetDecision, LeastLoadedPlacement
from repro.cluster.fleet_scenario import (
    FleetScenarioConfig,
    load_fleet_checkpoint,
    resume_fleet_scenario,
    run_fleet_scenario,
)
from repro.cluster.scenario import ScenarioConfig
from repro.faults.errors import CheckpointError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.runtime import active_plan
from repro.hardware.config import TestbedConfig
from repro.hardware.pool import RemotePoolConfig
from repro.orchestrator.policies import (
    InterferenceThresholdPolicy,
    RandomPolicy,
)
from repro.workloads.base import MemoryMode
from tests.helpers import assert_traces_identical

SCENARIO = ScenarioConfig(duration_s=400.0, spawn_interval=(15.0, 30.0), seed=3)


def fleet_config(n_nodes=3, regime="pooled"):
    return FleetScenarioConfig(
        scenario=SCENARIO,
        n_nodes=n_nodes,
        pool=RemotePoolConfig(regime=regime),
    )


def scheduler():
    return LeastLoadedPlacement(InterferenceThresholdPolicy())


def assert_fleets_identical(a, b):
    assert a.now == b.now
    assert a.pool_throttled_ticks == b.pool_throttled_ticks
    assert a.n_nodes == b.n_nodes
    for ea, eb in zip(a.engines, b.engines):
        assert_traces_identical(ea.trace, eb.trace)


class TestRunner:
    def test_round_robin_baseline_uses_every_node(self):
        fleet = run_fleet_scenario(fleet_config())
        assert fleet.now >= SCENARIO.duration_s
        assert fleet.queued_remote == 0
        per_node = [len(engine.trace.records) for engine in fleet.engines]
        assert sum(per_node) > 0
        assert all(count > 0 for count in per_node)

    def test_scheduled_run_places_across_nodes(self):
        fleet = run_fleet_scenario(fleet_config(), scheduler=scheduler())
        records = fleet.records()
        assert records
        # decided_s is threaded: every scheduled record carries one.
        assert all(record.decided_s is not None for record in records)

    def test_single_fleet_clock(self):
        fleet = run_fleet_scenario(fleet_config(n_nodes=2))
        assert all(
            engine.now == pytest.approx(fleet.now) for engine in fleet.engines
        )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FleetScenarioConfig(scenario=SCENARIO, n_nodes=0)


class TestDeterminism:
    def test_seeded_runs_bit_identical(self):
        a = run_fleet_scenario(fleet_config(), scheduler=scheduler())
        b = run_fleet_scenario(fleet_config(), scheduler=scheduler())
        assert_fleets_identical(a, b)

    def test_seeded_round_robin_bit_identical(self):
        a = run_fleet_scenario(fleet_config(regime="shared-segment"))
        b = run_fleet_scenario(fleet_config(regime="shared-segment"))
        assert_fleets_identical(a, b)

    def test_nodes_have_distinct_noise_streams(self):
        fleet = run_fleet_scenario(fleet_config(n_nodes=2))
        a, b = (engine.trace for engine in fleet.engines)
        rows_differ = any(
            not (ra == rb).all()
            for ra, rb in zip(a.metrics, b.metrics)
        )
        assert rows_differ  # per-node seeds: no mirrored counter noise


class TestUnderFaults:
    def outage_plan(self):
        return FaultPlan(
            faults=(
                FaultSpec(kind="link_outage", start_s=30.0, duration_s=60.0),
                FaultSpec(
                    kind="telemetry_corrupt", start_s=120.0, duration_s=60.0,
                    params={"probability": 0.4},
                ),
            ),
            seed=21,
        )

    def test_fleet_survives_rack_outage(self):
        with active_plan(self.outage_plan()):
            fleet = run_fleet_scenario(fleet_config(), scheduler=scheduler())
        assert fleet.records()
        assert fleet.queued_remote == 0  # every parked arrival drained
        assert all(not engine.remote_blocked for engine in fleet.engines)

    def test_outage_parks_pinned_remote_arrivals(self):
        class PinnedRemote:
            """Always node 0, always remote — no outage fallback."""

            def __call__(self, profile, fleet):
                return FleetDecision(0, MemoryMode.REMOTE)

        with active_plan(self.outage_plan()):
            fleet = run_fleet_scenario(
                fleet_config(), scheduler=PinnedRemote()
            )
        records = fleet.records()
        assert records
        assert all(r.mode is MemoryMode.REMOTE for r in records)
        assert fleet.queued_remote == 0
        # Outage-window arrivals were parked and retried, so they start
        # strictly after their decision instant.
        delayed = [
            r for r in records
            if r.decided_s is not None and r.arrival_time > r.decided_s
        ]
        assert delayed

    def test_faulted_runs_stay_deterministic(self):
        with active_plan(self.outage_plan()):
            a = run_fleet_scenario(fleet_config(), scheduler=scheduler())
        with active_plan(self.outage_plan()):
            b = run_fleet_scenario(fleet_config(), scheduler=scheduler())
        assert_fleets_identical(a, b)


class TestCheckpoint:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ckpt = tmp_path / "fleet.ckpt.json"
        full = run_fleet_scenario(
            fleet_config(),
            scheduler=LeastLoadedPlacement(RandomPolicy(seed=5)),
            checkpoint_path=ckpt,
            checkpoint_every_s=120.0,
        )
        assert ckpt.exists()
        resumed = resume_fleet_scenario(
            ckpt, scheduler=LeastLoadedPlacement(RandomPolicy(seed=5))
        )
        assert_fleets_identical(full, resumed)

    def test_resume_under_faults_matches(self, tmp_path):
        ckpt = tmp_path / "fleet.ckpt.json"
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="link_outage", start_s=150.0, duration_s=60.0),
            ),
            seed=21,
        )
        with active_plan(plan):
            full = run_fleet_scenario(
                fleet_config(),
                scheduler=scheduler(),
                checkpoint_path=ckpt,
                checkpoint_every_s=100.0,
            )
        data = load_fleet_checkpoint(ckpt)
        assert data["injectors"] is not None
        assert len(data["injectors"]) == 3
        resumed = resume_fleet_scenario(ckpt, scheduler=scheduler())
        assert_fleets_identical(full, resumed)

    def test_checkpoint_preserves_pool_regime(self, tmp_path):
        ckpt = tmp_path / "fleet.ckpt.json"
        run_fleet_scenario(
            fleet_config(regime="shared-segment"),
            scheduler=scheduler(),
            checkpoint_path=ckpt,
            checkpoint_every_s=100.0,
        )
        data = load_fleet_checkpoint(ckpt)
        assert data["config"]["pool"]["regime"] == "shared-segment"
        resumed = resume_fleet_scenario(ckpt, scheduler=scheduler())
        assert resumed.pool is not None
        assert resumed.pool.config.regime.value == "shared-segment"

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no fleet checkpoint"):
            load_fleet_checkpoint(tmp_path / "nope.json")

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(CheckpointError, match="version"):
            load_fleet_checkpoint(path)

    def test_missing_fields_raise(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"version": 3, "config": {}}))
        with pytest.raises(CheckpointError, match="missing fields"):
            load_fleet_checkpoint(path)


class _Stop(Exception):
    """Ends a resumed replay at its first placement."""


def pin_remote(profile, fleet):
    """Fleet scheduler: every arrival goes to node 0's remote pool."""
    return FleetDecision(0, MemoryMode.REMOTE)


def stop(profile, fleet):
    raise _Stop


class TestSharedCodec:
    """The fleet kind of the one checkpoint codec (format version 2)."""

    @pytest.fixture()
    def parked(self, tmp_path):
        """A checkpoint written mid-outage, with node 0's retry queue full."""
        ckpt = tmp_path / "fleet.ckpt.json"
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="link_outage", start_s=250.0, duration_s=1000.0),
            ),
            seed=21,
        )
        with active_plan(plan):
            full = run_fleet_scenario(
                fleet_config(),
                scheduler=pin_remote,
                checkpoint_path=ckpt,
                checkpoint_every_s=100.0,
            )
        engines = load_fleet_checkpoint(ckpt)["fleet"]["engines"]
        assert engines[0]["retry_queue"], "fixture needs parked deployments"
        return ckpt, full

    def test_save_restore_save_is_byte_identical(self, parked, tmp_path):
        ckpt, _ = parked
        again = tmp_path / "again.json"
        # A resumed replay saves at its first arrival boundary, before
        # placing anything: that file is the restored state re-saved.
        with pytest.raises(_Stop):
            resume_fleet_scenario(
                ckpt, scheduler=stop, checkpoint_path=again,
                checkpoint_every_s=0.0,
            )
        assert again.read_bytes() == ckpt.read_bytes()

    def test_resume_with_parked_work_matches(self, parked):
        ckpt, full = parked
        assert_fleets_identical(
            full, resume_fleet_scenario(ckpt, scheduler=pin_remote)
        )

    def test_resume_keeps_the_fleet_tick(self, tmp_path):
        ckpt = tmp_path / "fleet.ckpt.json"
        config = fleet_config()
        full = run_fleet_scenario(
            config,
            scheduler=scheduler(),
            fleet=ClusterFleet(
                n_nodes=config.n_nodes,
                testbed_config=TestbedConfig(seed=SCENARIO.seed),
                dt=0.5,
                pool=config.pool,
            ),
            checkpoint_path=ckpt,
            checkpoint_every_s=120.0,
        )
        resumed = resume_fleet_scenario(ckpt, scheduler=scheduler())
        assert resumed.dt == 0.5
        assert_fleets_identical(full, resumed)

    def test_version_1_is_refused(self, parked):
        ckpt, _ = parked
        data = json.loads(ckpt.read_text())
        data["version"] = 1
        ckpt.write_text(json.dumps(data))
        with pytest.raises(
            CheckpointError,
            match=r"unsupported fleet checkpoint version 1 \(expected 3\)",
        ):
            resume_fleet_scenario(ckpt, scheduler=pin_remote)

    def test_version_2_is_refused(self, parked):
        # Version 2 engine parts also listed finished deployments.
        ckpt, _ = parked
        data = json.loads(ckpt.read_text())
        data["version"] = 2
        ckpt.write_text(json.dumps(data))
        with pytest.raises(
            CheckpointError,
            match=r"unsupported fleet checkpoint version 2 \(expected 3\)",
        ):
            resume_fleet_scenario(ckpt, scheduler=pin_remote)

    @pytest.mark.parametrize(
        "where, field",
        [
            ("config", "n_nodes"),
            ("config.scenario", "seed"),
            ("config.pool", "regime"),
            ("fleet", "dt"),
            ("fleet", "submitted"),
            ("injectors.0", "rng_state"),
            ("fleet.engines.0.retry_queue.0", "backoff_s"),
        ],
    )
    def test_stale_part_names_the_missing_field(self, parked, where, field):
        ckpt, _ = parked
        data = json.loads(ckpt.read_text())
        part = data
        for key in where.split("."):
            part = part[int(key)] if key.isdigit() else part[key]
        part.pop(field)
        ckpt.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match=rf"\['{field}'\]"):
            resume_fleet_scenario(ckpt, scheduler=pin_remote)


class TestStaleFleetPayloads:
    """Stale nested payloads fail with CheckpointError on the fleet path."""

    @pytest.fixture()
    def ckpt(self, tmp_path):
        path = tmp_path / "fleet.ckpt.json"
        run_fleet_scenario(
            fleet_config(),
            scheduler=scheduler(),
            checkpoint_path=path,
            checkpoint_every_s=120.0,
        )
        return path, json.loads(path.read_text())

    def mutate(self, ckpt, strip):
        path, data = ckpt
        strip(data)
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="missing\\s+field"):
            resume_fleet_scenario(path, scheduler=scheduler())

    def test_engine_field_missing(self, ckpt):
        self.mutate(ckpt, lambda d: d["fleet"]["engines"][0].pop("counter_rng"))

    def test_trace_field_missing(self, ckpt):
        self.mutate(
            ckpt, lambda d: d["fleet"]["engines"][1]["trace"].pop("rows")
        )

    def test_record_field_missing(self, ckpt):
        path, data = ckpt
        records = next(
            e["trace"]["records"] for e in data["fleet"]["engines"]
            if e["trace"]["records"]
        )
        records[0].pop("runtime_s")
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="runtime_s"):
            resume_fleet_scenario(path, scheduler=scheduler())


class TestDrain:
    def test_drain_runs_the_rack_to_idle(self):
        from repro.cluster.fleet import ClusterFleet
        from repro.cluster.scenario import default_pool

        fleet = ClusterFleet(n_nodes=2)
        profile = default_pool()[0]
        fleet.deploy(
            profile, FleetDecision(0, MemoryMode.LOCAL), duration_s=30.0
        )
        fleet.deploy(
            profile, FleetDecision(1, MemoryMode.REMOTE), duration_s=50.0
        )
        assert fleet.drain(max_seconds=500.0) is True
        assert all(not e.running for e in fleet.engines)
        assert len(fleet.records()) == 2

    def test_missed_deadline_reports_false_not_raises(self):
        from repro.cluster.fleet import ClusterFleet
        from repro.cluster.scenario import default_pool

        fleet = ClusterFleet(n_nodes=1)
        fleet.deploy(
            default_pool()[0],
            FleetDecision(0, MemoryMode.LOCAL),
            duration_s=1000.0,
        )
        assert fleet.drain(max_seconds=5.0) is False
        assert fleet.engines[0].running  # still in flight, not dropped
        assert fleet.now == pytest.approx(5.0)
