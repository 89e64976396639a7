"""Fleet failure domains: detector, failover, device loss, conservation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.cluster.failover import (
    FailoverConfig,
    FailoverEntry,
    FleetHealthManager,
    NodeHealth,
)
from repro.cluster.fleet import (
    ClusterFleet,
    FleetDecision,
    LeastLoadedPlacement,
    PoolAwarePlacement,
)
from repro.cluster.engine import CapacityError, NodeDownError
from repro.faults.errors import CheckpointError
from repro.faults.plan import FaultPlan, FaultPlanError, FaultSpec
from repro.hardware.pool import RemotePool, RemotePoolConfig
from repro.orchestrator.policies import InterferenceThresholdPolicy
from repro.serve.client import DaemonClient
from repro.workloads import MemoryMode, spark_profile

LINK_GBPS = 2.5


def crash_plan(node="n1", start=10.0, duration=50.0, extra=(), seed=7):
    faults = (
        FaultSpec(kind="node_crash", start_s=start, duration_s=duration,
                  params={"node": node}),
        *extra,
    )
    return FaultPlan(faults=faults, seed=seed)


def make_fleet(plan, n_nodes=3, pool=None, scheduler=None):
    fleet = ClusterFleet(n_nodes=n_nodes, pool=pool)
    manager = FleetHealthManager(plan, scheduler=scheduler)
    fleet.health = manager
    return fleet, manager


def admit(fleet, node, mode=MemoryMode.LOCAL, name="lda"):
    deployment = fleet.deploy(spark_profile(name), FleetDecision(node, mode))
    fleet.note_submitted()
    return deployment


def assert_conserved(fleet):
    acc = fleet.accounting()
    assert acc["submitted"] == acc["total"], acc


class TestDetector:
    def test_fail_stop_precedes_detection(self):
        fleet, manager = make_fleet(crash_plan())
        admit(fleet, 1)
        fleet.run_for(10.0)  # heartbeats seen at now=0..9: still healthy
        assert manager.status("n1") is NodeHealth.UP
        assert not fleet.engines[1].dead
        fleet.run_for(1.0)  # first missed beat at now=10
        assert fleet.engines[1].dead  # fail-stop is immediate...
        assert manager.status("n1") is NodeHealth.SUSPECT  # ...detection lags
        assert len(fleet.engines[1].running) == 1  # frozen, not drained
        assert_conserved(fleet)

    def test_down_after_three_missed_beats_drains(self):
        fleet, manager = make_fleet(crash_plan())
        admit(fleet, 1)
        fleet.run_for(13.0)  # missed beats at now=10, 11, 12
        assert manager.status("n1") is NodeHealth.DOWN
        assert manager.counters["drained"] == 1
        # The same step replays the drained entry onto a survivor.
        assert manager.counters["replayed"] == 1
        assert manager.pending == 0
        assert not fleet.engines[1].running
        assert sum(len(e.running) for e in fleet.engines) == 1
        assert_conserved(fleet)

    def test_dead_node_produces_nan_telemetry(self):
        fleet, _ = make_fleet(crash_plan())
        admit(fleet, 0)
        fleet.run_for(20.0)
        dead_rows = fleet.engines[1].trace.metrics[11:]
        assert np.isnan(dead_rows).all()
        alive_rows = fleet.engines[0].trace.metrics
        assert not np.isnan(alive_rows).any()

    def test_rejoin_after_window_close(self):
        fleet, manager = make_fleet(crash_plan(start=10.0, duration=20.0))
        fleet.run_for(35.0)
        assert manager.status("n1") is NodeHealth.UP
        assert not fleet.engines[1].dead
        admit(fleet, 1)  # re-admitted: placement works again
        assert fleet.engines[1].running
        assert_conserved(fleet)

    def test_rejoin_window_overrides_crash(self):
        rejoin = FaultSpec(kind="node_rejoin", start_s=30.0, duration_s=60.0,
                           params={"node": "n1"})
        fleet, manager = make_fleet(
            crash_plan(start=10.0, duration=80.0, extra=(rejoin,))
        )
        fleet.run_for(25.0)
        assert manager.status("n1") is NodeHealth.DOWN
        fleet.run_for(10.0)  # the explicit rejoin window reboots it early
        assert manager.status("n1") is NodeHealth.UP
        assert not fleet.engines[1].dead

    def test_retry_queue_drains_into_failover(self):
        fleet, manager = make_fleet(crash_plan())
        engine = fleet.engines[1]
        engine.remote_blocked = True
        engine.queue_remote(spark_profile("lda"))
        fleet.note_submitted()
        fleet.run_for(13.0)
        assert engine.queued_remote == 0
        assert manager.counters["drained"] == 1
        assert_conserved(fleet)

    def test_detector_thresholds_validated(self):
        with pytest.raises(ValueError):
            FailoverConfig(suspect_after=0)
        with pytest.raises(ValueError):
            FailoverConfig(suspect_after=3, down_after=2)


class TestFailover:
    def test_drained_work_finishes_on_survivors(self):
        fleet, manager = make_fleet(crash_plan(start=10.0, duration=50.0))
        admit(fleet, 1)
        admit(fleet, 1, name="gmm")
        fleet.run_until_idle()
        assert manager.counters["drained"] == 2
        assert manager.counters["replayed"] == 2
        assert len(fleet.records()) == 2
        # Fail-stop restarts: survivors, not the crashed node, ran them.
        assert not fleet.engines[1].trace.records
        assert_conserved(fleet)

    def test_full_rack_parks_until_rejoin(self):
        # Both nodes crash; n1 rejoins at t=35 while n0 stays dead.  The
        # drained entry has no survivor to land on, so replay must park
        # it (never drop) until the rejoin makes placement possible.
        n0_crash = FaultSpec(kind="node_crash", start_s=5.0, duration_s=100.0,
                             params={"node": "n0"})
        fleet, manager = make_fleet(
            crash_plan(node="n1", start=5.0, duration=30.0,
                       extra=(n0_crash,)),
            n_nodes=2,
        )
        admit(fleet, 1, name="lda")
        conserved_ticks = []
        fleet.tick_hooks.append(
            lambda f: conserved_ticks.append(
                f.accounting()["submitted"] == f.accounting()["total"]
            )
        )
        fleet.run_for(10.0)
        assert manager.status("n0") is NodeHealth.DOWN
        assert manager.status("n1") is NodeHealth.DOWN
        assert manager.pending == 1  # parked in the failover queue
        assert manager.counters["replayed"] == 0
        assert_conserved(fleet)
        fleet.run_for(30.0)  # window closes at 35: n1 rejoins and takes it
        assert manager.status("n1") is NodeHealth.UP
        assert manager.pending == 0
        assert manager.counters["replayed"] == 1
        assert fleet.engines[1].running
        assert all(conserved_ticks)

    def test_deploy_on_dead_node_raises(self):
        fleet, _ = make_fleet(crash_plan())
        fleet.run_for(11.0)
        with pytest.raises(NodeDownError):
            fleet.deploy(spark_profile("lda"), FleetDecision(1, MemoryMode.LOCAL))

    def test_recovery_time_sampled(self):
        fleet, manager = make_fleet(crash_plan())
        admit(fleet, 1)
        fleet.run_for(20.0)
        assert manager.recovery_times
        assert all(t >= 0.0 for t in manager.recovery_times)


class TestFailoverEntries:
    @staticmethod
    def parked_fleet():
        """Both nodes of a two-node rack down: two entries stay parked."""
        n0_crash = FaultSpec(kind="node_crash", start_s=5.0, duration_s=100.0,
                             params={"node": "n0"})
        fleet, manager = make_fleet(
            crash_plan(node="n1", start=5.0, duration=100.0, extra=(n0_crash,)),
            n_nodes=2,
        )
        admit(fleet, 1, name="lda")
        admit(fleet, 1, mode=MemoryMode.REMOTE, name="gmm")
        fleet.run_for(10.0)
        assert manager.pending == 2
        return fleet, manager

    def test_state_dict_round_trips_typed_entries(self):
        fleet, manager = self.parked_fleet()
        state = json.loads(json.dumps(manager.state_dict()))
        saved = state["failover_queue"]
        assert [list(entry) for entry in saved] == [[
            "profile", "mode", "duration_s", "decided_s", "from_node", "cause",
        ]] * 2
        assert [(e["profile"], e["mode"]) for e in saved] == [
            ("lda", "local"), ("gmm", "remote"),
        ]
        restored = FleetHealthManager(manager.plan)
        restored.load_state_dict(
            state, {name: spark_profile(name) for name in ("lda", "gmm")}
        )
        assert all(isinstance(e, FailoverEntry) for e in restored.failover_queue)
        assert restored.failover_queue == manager.failover_queue

    def test_unknown_field_in_entry_is_rejected(self):
        _, manager = self.parked_fleet()
        state = manager.state_dict()
        state["failover_queue"][1]["attempts"] = 3
        restored = FleetHealthManager(manager.plan)
        with pytest.raises(CheckpointError, match=r"failover entry.*\['attempts'\]"):
            restored.load_state_dict(
                state, {name: spark_profile(name) for name in ("lda", "gmm")}
            )


class TestPlacementExclusion:
    def test_least_loaded_skips_dead_nodes(self):
        fleet = ClusterFleet(n_nodes=3)
        fleet.engines[1].dead = True
        scheduler = LeastLoadedPlacement(InterferenceThresholdPolicy())
        assert 1 not in scheduler.node_order(fleet)
        decision = scheduler(spark_profile("lda"), fleet)
        assert decision.node_index != 1

    def test_pool_aware_skips_dead_nodes(self):
        fleet = ClusterFleet(n_nodes=3, pool=RemotePoolConfig())
        fleet.engines[2].dead = True
        scheduler = PoolAwarePlacement(InterferenceThresholdPolicy())
        assert 2 not in scheduler.node_order(fleet)

    def test_all_dead_fleet_rejects(self):
        fleet = ClusterFleet(n_nodes=2)
        for engine in fleet.engines:
            engine.dead = True
        scheduler = LeastLoadedPlacement(InterferenceThresholdPolicy())
        with pytest.raises(CapacityError):
            scheduler(spark_profile("lda"), fleet)
        with pytest.raises(CapacityError, match="down"):
            fleet.least_loaded_node()


class TestPoolDeviceLoss:
    def device_plan(self, fraction=0.5, start=5.0, duration=20.0, **params):
        return FaultPlan(
            faults=(
                FaultSpec(
                    kind="pool_device_fail", start_s=start,
                    duration_s=duration,
                    params={"fraction": fraction, **params},
                ),
            ),
            seed=9,
        )

    def test_derate_applies_and_heals(self):
        fleet, _ = make_fleet(
            self.device_plan(), n_nodes=2, pool=RemotePoolConfig()
        )
        fleet.run_for(6.0)
        assert fleet.pool.device_capacity_factor == pytest.approx(0.5)
        assert fleet.pool.device_bw_factor == pytest.approx(0.5)
        fleet.run_for(25.0)  # window closed: full capacity restored
        assert fleet.pool.device_capacity_factor == pytest.approx(1.0)

    def test_bandwidth_fraction_can_differ(self):
        fleet, _ = make_fleet(
            self.device_plan(fraction=0.25, bandwidth_fraction=0.5),
            n_nodes=2, pool=RemotePoolConfig(),
        )
        fleet.run_for(6.0)
        assert fleet.pool.device_capacity_factor == pytest.approx(0.75)
        assert fleet.pool.device_bw_factor == pytest.approx(0.5)

    def test_overflow_evicted_to_local(self):
        pool = RemotePoolConfig(capacity_gb=16.0)  # 2 x lda's 8 GB
        fleet, manager = make_fleet(self.device_plan(), n_nodes=2, pool=pool)
        admit(fleet, 0, mode=MemoryMode.REMOTE, name="lda")
        admit(fleet, 1, mode=MemoryMode.REMOTE, name="gmm")
        fleet.run_for(6.0)  # halved pool holds one 8 GB segment, not two
        assert manager.counters["evicted"] == 1
        assert manager.counters["replayed"] == 1
        used = sum(
            e.used_capacity_gb(MemoryMode.REMOTE) for e in fleet.engines
        )
        assert used <= fleet.pool.effective_capacity_gb + 1e-9
        assert sum(len(e.running) for e in fleet.engines) == 2
        assert_conserved(fleet)

    def test_survivors_keep_their_segments(self):
        pool = RemotePoolConfig(capacity_gb=32.0)
        fleet, manager = make_fleet(
            self.device_plan(), n_nodes=2, pool=pool
        )
        admit(fleet, 0, mode=MemoryMode.REMOTE, name="lda")  # 8 GB of 16
        fleet.run_for(6.0)  # still fits the derated pool: no blast radius
        assert manager.counters["evicted"] == 0
        assert fleet.engines[0].running[0].mode is MemoryMode.REMOTE


class TestWaterFillProperties:
    """Pool arbitration after arbitrary device-loss sequences (satellite)."""

    @given(
        fractions=st.lists(
            st.floats(0.0, 0.9, allow_nan=False), min_size=0, max_size=4
        ),
        demands=st.lists(
            st.floats(0.0, LINK_GBPS, allow_nan=False),
            min_size=2, max_size=6,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_never_exceeds_surviving_bandwidth_and_stays_max_min(
        self, fractions, demands
    ):
        pool = RemotePool(
            RemotePoolConfig(), n_nodes=len(demands),
            link_capacity_gbps=LINK_GBPS, node_remote_gb=16.0,
        )
        survive = 1.0
        for fraction in fractions:
            survive *= 1.0 - fraction
        pool.set_device_factors(survive, survive)
        factors = pool.arbitrate(demands)
        allocated = [
            min(d, LINK_GBPS) if f >= 1.0 - 1e-12 else f * LINK_GBPS
            for d, f in zip(demands, factors)
        ]
        assert all(0.0 <= a <= LINK_GBPS + 1e-9 for a in allocated)
        # Conservation: never hand out more than the surviving fabric.
        if sum(min(d, LINK_GBPS) for d in demands) > pool.effective_bw_gbps:
            assert sum(allocated) <= pool.effective_bw_gbps + 1e-6
        # Max-min fairness: a single water level L with
        # alloc_i == min(demand_i, L) for every lane.
        level = max(allocated, default=0.0)
        for demand, alloc in zip(demands, allocated):
            assert alloc == pytest.approx(
                min(min(demand, LINK_GBPS), level), abs=1e-6
            )

    @given(fraction=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_factors_clamped_to_unit_interval(self, fraction):
        pool = RemotePool(
            RemotePoolConfig(), n_nodes=2,
            link_capacity_gbps=LINK_GBPS, node_remote_gb=16.0,
        )
        pool.set_device_factors(1.0 - fraction, 1.0 - fraction)
        for factor in pool.arbitrate([LINK_GBPS, LINK_GBPS]):
            assert 0.0 <= factor <= 1.0


class TestRetryJitterDeterminism:
    """Seeded jitter replays bit-identically (satellite regression)."""

    def _schedule(self, seed=3):
        fleet = ClusterFleet(n_nodes=1)
        engine = fleet.engines[0]
        engine.remote_blocked = True
        engine.queue_remote(spark_profile("lda"))
        fleet.note_submitted()
        fleet.run_for(40.0)
        entry = engine._retry_queue[0]
        return entry.attempts, entry.next_attempt_s

    def test_same_seed_same_backoff_schedule(self):
        assert self._schedule() == self._schedule()

    def test_jitter_draws_are_seed_deterministic(self):
        a = ClusterFleet(n_nodes=1).engines[0]
        b = ClusterFleet(n_nodes=1).engines[0]
        assert [a._retry_rng.random() for _ in range(8)] == (
            [b._retry_rng.random() for _ in range(8)]
        )

    def test_client_backoff_seeded(self):
        a = DaemonClient(port=7001, jitter_seed=11)
        b = DaemonClient(port=7002, jitter_seed=11)
        c = DaemonClient(port=7001, jitter_seed=12)
        schedule_a = [a._backoff(i) for i in range(1, 6)]
        schedule_b = [b._backoff(i) for i in range(1, 6)]
        schedule_c = [c._backoff(i) for i in range(1, 6)]
        assert schedule_a == schedule_b  # seed wins over port
        assert schedule_a != schedule_c
        # Jitter spreads a herd but never shrinks the base backoff.
        for attempt, backoff in enumerate(schedule_a, start=1):
            base = a.backoff_s * attempt
            assert base <= backoff <= base * 1.5 + 1e-12

    def test_client_default_seed_derives_from_port(self):
        a = DaemonClient(port=7001)
        b = DaemonClient(port=7001)
        assert [a._backoff(1)] == [b._backoff(1)]


class TestPlanValidation:
    """Fleet-shape cross-checks and the CLI surface (satellite)."""

    def test_unknown_node_target_rejected(self):
        plan = crash_plan(node="n5")
        with pytest.raises(FaultPlanError, match="n5"):
            plan.validate(3)
        with pytest.raises(FaultPlanError, match="node_crash"):
            plan.validate(3)

    def test_valid_targets_pass_and_chain(self):
        plan = crash_plan(node="n2")
        assert plan.validate(3) is plan
        assert plan.validate(None) is plan  # shape unknown: skip

    def test_sample_availability_deterministic_and_valid(self):
        a = FaultPlan.sample_availability(seed=4, n_nodes=4)
        b = FaultPlan.sample_availability(seed=4, n_nodes=4)
        assert a.to_json() == b.to_json()
        assert a.validate(4) is a
        kinds = {spec.kind for spec in a.faults}
        assert kinds == {"node_crash", "node_rejoin", "pool_device_fail"}
        assert FaultPlan.sample_availability(seed=5, n_nodes=4).to_json() != (
            a.to_json()
        )

    def test_cli_validate_nodes_flag(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        FaultPlan.sample_availability(seed=1, n_nodes=4).to_file(path)
        assert main(["faults", "validate", str(path), "--nodes", "4"]) == 0
        assert "4-node fleet" in capsys.readouterr().out
        assert main(["faults", "validate", str(path), "--nodes", "2"]) == 2
        err = capsys.readouterr().err
        assert "unknown node" in err
        assert "'n1'" in err or "'n2'" in err

    def test_cli_sample_availability(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main([
            "faults", "sample", "--availability", "--nodes", "4",
            "--out", str(path),
        ]) == 0
        plan = FaultPlan.from_file(path)
        assert plan.validate(4) is plan

    def test_cli_sample_variants_mutually_exclusive(self, capsys):
        assert main([
            "faults", "sample", "--availability", "--daemon",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
