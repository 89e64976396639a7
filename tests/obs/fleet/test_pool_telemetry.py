"""Pool-arbitration telemetry: water-fill gauges, throttle causes, stream."""

import pytest

from repro import obs
from repro.cluster.fleet import ClusterFleet, FleetDecision
from repro.hardware import NodeConfig, RemotePoolConfig, TestbedConfig
from repro.obs.live.watch import read_stream
from repro.workloads.base import MemoryMode
from repro.workloads.spark import spark_profile


def scan():
    return spark_profile("scan")  # 8 GB footprint


def congested_fleet(**pool_kwargs):
    pool_kwargs.setdefault("aggregate_bw_gbps", 0.1)
    fleet = ClusterFleet(n_nodes=2, pool=RemotePoolConfig(**pool_kwargs))
    for i in range(2):
        fleet.deploy(
            scan(), FleetDecision(i, MemoryMode.REMOTE), duration_s=1e6
        )
    return fleet


class TestWaterfillTelemetry:
    def test_congested_tick_exports_per_node_factors(self):
        with obs.session() as handles:
            fleet = congested_fleet()
            fleet.tick()
            factors = handles.metrics.get("pool_capacity_factor").snapshot()
            allocs = handles.metrics.get(
                "pool_waterfill_alloc_gbps"
            ).snapshot()
        by_node = {s["labels"]["node"]: s["value"] for s in factors["series"]}
        assert set(by_node) == {"n0", "n1"}
        assert all(0.0 < v < 1.0 for v in by_node.values())
        for series in allocs["series"]:
            assert series["value"] <= 0.1  # granted within fabric budget
        # Gauges mirror the engines' own live factors.
        for engine in fleet.engines:
            assert by_node[engine.node_label] == pytest.approx(
                engine.pool_capacity_factor
            )

    def test_utilization_gauges(self):
        with obs.session() as handles:
            fleet = congested_fleet()
            fleet.tick()
            bw = handles.metrics.get("pool_bandwidth_utilization")
            cap = handles.metrics.get("pool_capacity_utilization")
            assert bw is not None and cap is not None
            assert bw.snapshot()["series"][0]["value"] > 1.0  # oversubscribed
            assert cap.snapshot()["series"][0]["value"] > 0.0
        assert fleet.pool_throttled_ticks >= 1

    def test_bandwidth_throttle_events_count_per_node(self):
        with obs.session() as handles:
            fleet = congested_fleet()
            fleet.run_for(3.0)
            family = handles.metrics.get("pool_throttle_events_total")
            snapshot = family.snapshot()
        bandwidth = [
            s for s in snapshot["series"]
            if s["labels"]["cause"] == "bandwidth"
        ]
        assert {s["labels"]["node"] for s in bandwidth} == {"n0", "n1"}
        assert all(s["labels"]["regime"] == "pooled" for s in bandwidth)
        assert all(s["value"] == 3 for s in bandwidth)  # every tick throttled

    def test_capacity_throttle_events_on_exhausted_pool(self):
        config = TestbedConfig(node=NodeConfig(remote_gb=10.0))
        with obs.session() as handles:
            fleet = ClusterFleet(
                n_nodes=2, testbed_config=config,
                pool=RemotePoolConfig(regime="pooled"),
            )
            fleet.deploy(scan(), FleetDecision(0, MemoryMode.REMOTE))
            fleet.deploy(scan(), FleetDecision(0, MemoryMode.REMOTE))
            # 4 GB of rack pool left: node 1's fit check must fail and
            # be counted as a capacity throttle on its lane.
            assert not fleet.engines[1].fits(scan(), MemoryMode.REMOTE)
            snapshot = handles.metrics.get(
                "pool_throttle_events_total"
            ).snapshot()
        series = [
            s for s in snapshot["series"]
            if s["labels"]["cause"] == "capacity"
        ]
        assert len(series) == 1
        assert series[0]["labels"]["node"] == "n1"
        assert series[0]["value"] == 1

    def test_uncongested_tick_exports_no_throttle_counter(self):
        with obs.session() as handles:
            fleet = ClusterFleet(n_nodes=2, pool=RemotePoolConfig())
            fleet.deploy(scan(), FleetDecision(0, MemoryMode.REMOTE))
            fleet.run_for(3.0)
            family = handles.metrics.get("pool_throttle_events_total")
            factors = handles.metrics.get("pool_capacity_factor").snapshot()
        # The family is declared with the telemetry block but no
        # throttle series exists — nothing was ever throttled.
        assert family.snapshot()["series"] == []
        assert all(s["value"] == 1.0 for s in factors["series"])

    def test_disabled_run_exports_nothing(self):
        fleet = congested_fleet()
        fleet.tick()
        assert not obs.enabled()
        assert fleet.pool_throttled_ticks >= 1  # simulation unaffected


class TestPoolStreamRecords:
    def run_stream(self, tmp_path, **pool_kwargs):
        live = obs.enable_live(tmp_path / "live", flush_every=1)
        fleet = congested_fleet(**pool_kwargs)
        fleet.run_for(3.0)
        obs.disable()
        records, skipped = read_stream(live.exporter.path)
        assert skipped == 0
        return records

    def test_throttled_ticks_emit_pool_records(self, tmp_path):
        records = self.run_stream(tmp_path)
        pool = [r for r in records if r["t"] == "pool"]
        assert len(pool) == 3  # one per throttled fleet tick
        for record in pool:
            assert record["regime"] == "pooled"
            assert set(record["throttled"]) == {"n0", "n1"}
            assert set(record["factors"]) == {"n0", "n1"}
            assert record["bw_util"] > 1.0

    def test_throttle_onset_event_is_edge_triggered(self, tmp_path):
        records = self.run_stream(tmp_path)
        events = [
            r for r in records
            if r["t"] == "event" and r["kind"] == "pool_throttle"
        ]
        # Three throttled ticks with the same node set: one onset only.
        assert len(events) == 1
        assert set(events[0]["nodes"]) == {"n0", "n1"}

    def test_uncongested_run_emits_no_pool_records(self, tmp_path):
        records = self.run_stream(tmp_path, aggregate_bw_gbps=None)
        assert not [r for r in records if r["t"] == "pool"]
