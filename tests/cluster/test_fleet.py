"""Multi-node fleet tests (the §VII scalability extension)."""

import pytest

from repro.cluster import (
    CapacityError,
    ClusterFleet,
    FleetDecision,
    LeastLoadedPlacement,
    PoolAwarePlacement,
)
from repro.hardware import NodeConfig, RemotePoolConfig, TestbedConfig
from repro.workloads import MemoryMode, spark_profile
from tests.helpers import assert_traces_identical


class TestFleetBasics:
    def test_nodes_independent(self):
        fleet = ClusterFleet(n_nodes=2)
        fleet.deploy(spark_profile("lr"), FleetDecision(0, MemoryMode.LOCAL))
        p0 = fleet.engines[0].current_pressure()
        p1 = fleet.engines[1].current_pressure()
        assert p0.cpu_utilization > 0
        assert p1.cpu_utilization == 0

    def test_lockstep_clock(self):
        fleet = ClusterFleet(n_nodes=3)
        fleet.run_for(10.0)
        assert all(e.now == pytest.approx(10.0) for e in fleet.engines)

    def test_run_until_idle_collects_records(self):
        fleet = ClusterFleet(n_nodes=2)
        fleet.deploy(spark_profile("scan"), FleetDecision(0, MemoryMode.LOCAL))
        fleet.deploy(spark_profile("scan"), FleetDecision(1, MemoryMode.REMOTE))
        fleet.run_until_idle()
        records = fleet.records()
        assert len(records) == 2
        assert {r.mode for r in records} == {MemoryMode.LOCAL, MemoryMode.REMOTE}

    def test_invalid_node_index(self):
        fleet = ClusterFleet(n_nodes=2)
        with pytest.raises(ValueError):
            fleet.deploy(spark_profile("scan"), FleetDecision(5, MemoryMode.LOCAL))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ClusterFleet(n_nodes=0)


class TestLoadBalancing:
    def test_least_loaded_placement_spreads_work(self):
        from repro.orchestrator import AllLocalPolicy

        fleet = ClusterFleet(n_nodes=2)
        scheduler = LeastLoadedPlacement(AllLocalPolicy())
        placements = []
        for _ in range(6):
            decision = scheduler(spark_profile("lr"), fleet)
            fleet.deploy(spark_profile("lr"), decision)
            placements.append(decision.node_index)
        # Work alternates: each placement raises the target's load.
        assert set(placements) == {0, 1}
        assert placements[0] != placements[1]

    def test_capacity_fallback_across_pools(self):
        from repro.orchestrator import AllRemotePolicy

        config = TestbedConfig(node=NodeConfig(remote_gb=10.0))
        fleet = ClusterFleet(n_nodes=2, testbed_config=config)
        scheduler = LeastLoadedPlacement(AllRemotePolicy())
        modes = []
        for _ in range(4):
            decision = scheduler(spark_profile("scan"), fleet)  # 8 GB each
            fleet.deploy(spark_profile("scan"), decision)
            modes.append(decision.mode)
        # Two fit remotely (one per node); the rest fall back to local.
        assert modes.count(MemoryMode.REMOTE) == 2
        assert modes.count(MemoryMode.LOCAL) == 2


class TestOutageBugfixes:
    """Regressions for the fleet holes the rack generalization exposed."""

    def test_run_until_idle_waits_for_retry_queues(self):
        # An outage-parked deployment is invisible to `running`; draining
        # on that alone used to drop it from the trace silently.
        fleet = ClusterFleet(n_nodes=2)
        fleet.engines[1].remote_blocked = True
        fleet.engines[1].queue_remote(spark_profile("scan"))
        assert fleet.queued_remote == 1
        fleet.engines[1].remote_blocked = False
        fleet.run_until_idle()
        records = fleet.records()
        assert len(records) == 1
        assert records[0].mode is MemoryMode.REMOTE
        assert fleet.queued_remote == 0

    def test_deploy_threads_decided_s_to_record(self):
        fleet = ClusterFleet(n_nodes=2)
        fleet.run_for(5.0)
        deployment = fleet.deploy(
            spark_profile("scan"),
            FleetDecision(0, MemoryMode.LOCAL),
            decided_s=2.0,
        )
        assert deployment.decided_s == pytest.approx(2.0)
        fleet.run_until_idle()
        (record,) = fleet.records()
        assert record.decided_s == pytest.approx(2.0)

    def test_placement_skips_remote_blocked_node(self):
        from repro.orchestrator import AllRemotePolicy

        fleet = ClusterFleet(n_nodes=2)
        fleet.engines[0].remote_blocked = True
        decision = LeastLoadedPlacement(AllRemotePolicy())(
            spark_profile("scan"), fleet
        )
        assert decision.node_index == 1
        assert decision.mode is MemoryMode.REMOTE

    def test_placement_raises_only_when_the_rack_is_full(self):
        from repro.orchestrator import AllRemotePolicy

        config = TestbedConfig(node=NodeConfig(dram_gb=1.0, remote_gb=1.0))
        fleet = ClusterFleet(n_nodes=2, testbed_config=config)
        fleet.engines[0].remote_blocked = True
        with pytest.raises(CapacityError, match="fits nowhere"):
            LeastLoadedPlacement(AllRemotePolicy())(spark_profile("scan"), fleet)


class TestRackPool:
    def scan(self):
        return spark_profile("scan")  # 8 GB footprint

    def test_pooled_capacity_is_fungible_across_nodes(self):
        config = TestbedConfig(node=NodeConfig(remote_gb=10.0))
        fleet = ClusterFleet(
            n_nodes=2, testbed_config=config,
            pool=RemotePoolConfig(regime="pooled"),
        )
        # Node 0 draws 16 GB — beyond its 10 GB point-to-point share,
        # fine against the 20 GB rack pool.
        fleet.deploy(self.scan(), FleetDecision(0, MemoryMode.REMOTE))
        fleet.deploy(self.scan(), FleetDecision(0, MemoryMode.REMOTE))
        # Only 4 GB of pool remain, so node 1 cannot take 8 GB.
        assert not fleet.engines[1].fits(self.scan(), MemoryMode.REMOTE)

    def test_shared_segment_caps_each_node(self):
        config = TestbedConfig(node=NodeConfig(remote_gb=10.0))
        fleet = ClusterFleet(
            n_nodes=2, testbed_config=config,
            pool=RemotePoolConfig(regime="shared-segment"),
        )
        fleet.deploy(self.scan(), FleetDecision(0, MemoryMode.REMOTE))
        # Node 0's 10 GB segment is nearly full; its sibling's idle
        # segment cannot be borrowed.
        assert not fleet.engines[0].fits(self.scan(), MemoryMode.REMOTE)
        assert fleet.engines[1].fits(self.scan(), MemoryMode.REMOTE)

    def test_arbitration_throttles_lanes_under_fabric_pressure(self):
        fleet = ClusterFleet(
            n_nodes=2,
            pool=RemotePoolConfig(aggregate_bw_gbps=0.1),
        )
        for i in range(2):
            fleet.deploy(
                self.scan(), FleetDecision(i, MemoryMode.REMOTE),
                duration_s=1e6,
            )
        fleet.tick()
        assert all(e.pool_capacity_factor < 1.0 for e in fleet.engines)
        assert fleet.pool_throttled_ticks >= 1

    def test_unoversubscribed_pool_is_bit_inert(self):
        # A default pool (rack capacity = N x node, fabric = N x link)
        # must not perturb the simulation: per-node traces match the
        # pool-less fleet bit for bit.
        plain = ClusterFleet(n_nodes=2)
        pooled = ClusterFleet(n_nodes=2, pool=RemotePoolConfig())
        for fleet in (plain, pooled):
            fleet.deploy(self.scan(), FleetDecision(0, MemoryMode.REMOTE))
            fleet.deploy(self.scan(), FleetDecision(1, MemoryMode.LOCAL))
            fleet.run_until_idle()
        for a, b in zip(plain.engines, pooled.engines):
            assert_traces_identical(a.trace, b.trace)

    def test_pool_aware_placement_avoids_throttled_lane(self):
        from repro.orchestrator import AllRemotePolicy

        fleet = ClusterFleet(n_nodes=2, pool=RemotePoolConfig())
        fleet.engines[0].pool_capacity_factor = 0.2
        scheduler = PoolAwarePlacement(AllRemotePolicy(), throttle_weight=10.0)
        decision = scheduler(self.scan(), fleet)
        assert decision.node_index == 1

    def test_fleet_tick_accounts_arbitration_phase(self):
        from repro.obs.perf.accounting import phases_session

        fleet = ClusterFleet(n_nodes=2, pool=RemotePoolConfig())
        with phases_session() as acct:
            fleet.run_for(5.0)
        snapshot = acct.snapshot()
        assert snapshot["fleet.arbitration"]["calls"] == 5
