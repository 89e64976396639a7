"""Fleet-aware live stream: records, SLO rollups, determinism, purity."""

from repro import obs
from repro.cluster.fleet import ClusterFleet, FleetDecision, LeastLoadedPlacement
from repro.cluster.fleet_scenario import FleetScenarioConfig, run_fleet_scenario
from repro.cluster.scenario import ScenarioConfig
from repro.hardware.pool import RemotePoolConfig
from repro.obs.live.watch import read_stream
from repro.obs.perf.profile import fabricate_predictor
from repro.orchestrator.policies import AdriasPolicy, InterferenceThresholdPolicy
from repro.workloads import MemoryMode, spark_profile
from tests.cluster.test_fleet_scenario import assert_fleets_identical

SCENARIO = ScenarioConfig(duration_s=400.0, spawn_interval=(15.0, 30.0), seed=3)

#: Impossible LC targets so every classified completion violates —
#: burn rates are then deterministic and strictly positive.
QOS = {"redis": 0.1, "memcached": 0.1}


def fleet_config(n_nodes=3):
    return FleetScenarioConfig(
        scenario=SCENARIO, n_nodes=n_nodes, pool=RemotePoolConfig(),
    )


def scheduler():
    return LeastLoadedPlacement(InterferenceThresholdPolicy())


def stream_fleet(tmp_path, name="live", **live_kwargs):
    live_kwargs.setdefault("flush_every", 1)
    live_kwargs.setdefault("qos_p99_ms", QOS)
    live = obs.enable_live(tmp_path / name, **live_kwargs)
    fleet = run_fleet_scenario(fleet_config(), scheduler=scheduler())
    path = live.exporter.path
    obs.disable()
    records, skipped = read_stream(path)
    assert skipped == 0
    return fleet, records


class TestFleetStreamRecords:
    def test_ticks_carry_node_labels(self, tmp_path):
        fleet, records = stream_fleet(tmp_path)
        ticks = [r for r in records if r["t"] == "tick"]
        assert ticks
        assert {t["node"] for t in ticks} == {"n0", "n1", "n2"}

    def test_one_finish_record_per_completion(self, tmp_path):
        fleet, records = stream_fleet(tmp_path)
        finishes = [r for r in records if r["t"] == "finish"]
        per_node = {
            engine.node_label: len(engine.trace.records)
            for engine in fleet.engines
        }
        assert len(finishes) == sum(per_node.values()) > 0
        for node, expected in per_node.items():
            got = [f for f in finishes if f["node"] == node]
            assert len(got) == expected
        # Every record names its app, kind, mode and the session clock.
        for record in finishes:
            assert {"app", "kind", "mode", "clock"} <= set(record)

    def test_lc_finishes_are_scored(self, tmp_path):
        _, records = stream_fleet(tmp_path)
        lc = [
            r for r in records
            if r["t"] == "finish" and r["kind"] == "lc"
            and r["app"] in QOS and r["p99_ms"] is not None
        ]
        assert lc
        assert all(r["violated"] is True for r in lc)

    def test_meta_lists_qos_apps(self, tmp_path):
        _, records = stream_fleet(tmp_path)
        assert records[0]["t"] == "meta"
        assert records[0]["qos_apps"] == sorted(QOS)

    def test_tick_records_carry_fleet_burn_rollup(self, tmp_path):
        _, records = stream_fleet(tmp_path)
        rollups = [
            r["fleet_slo"] for r in records
            if r["t"] == "tick" and "fleet_slo" in r
        ]
        assert rollups  # appears once per-node SLO state exists
        last = rollups[-1]
        assert set(last) == {"worst", "weighted", "violations", "total"}
        assert last["violations"] == last["total"] > 0
        windows = set(last["worst"])
        assert windows == set(last["weighted"])
        for window, entry in last["worst"].items():
            assert entry["burn"] >= last["weighted"][window] >= 0.0

    def test_end_record_carries_fleet_rollup(self, tmp_path):
        _, records = stream_fleet(tmp_path)
        end = records[-1]
        assert end["t"] == "end"
        assert end["fleet_slo"]["total"] > 0


class TestFleetForecastJoin:
    def test_forecast_joins_the_node_whose_window_it_read(self, tmp_path):
        """n1 ticks last in every fleet tick, but an Adrias decision on
        n0 reads n0's window, so its Ŝ forecast joins n0's stream."""
        live = obs.enable_live(tmp_path / "live", flush_every=1)
        fleet = ClusterFleet(n_nodes=2)
        fleet.deploy(spark_profile("sort"), FleetDecision(1, MemoryMode.LOCAL))
        fleet.run_for(130.0)
        placement = LeastLoadedPlacement(
            AdriasPolicy(fabricate_predictor(lstm_hidden=4))
        )
        assert placement(spark_profile("gmm"), fleet).node_index == 0
        fleet.run_for(130.0)
        streams = live.drift.snapshot()
        assert streams["system_state@n0"]["n"] == 1
        assert "system_state@n1" not in streams


class TestFleetSloMetrics:
    def test_node_and_fleet_burn_gauges_exported(self, tmp_path):
        live = obs.enable_live(
            tmp_path / "live", flush_every=1, qos_p99_ms=QOS
        )
        run_fleet_scenario(fleet_config(), scheduler=scheduler())
        registry = obs.metrics()
        node_burn = registry.get("slo_node_burn_rate")
        fleet_burn = registry.get("slo_fleet_burn_rate")
        assert node_burn is not None and fleet_burn is not None
        node_labels = {
            s["labels"]["node"] for s in node_burn.snapshot()["series"]
        }
        assert node_labels <= {"n0", "n1", "n2"} and node_labels
        aggs = {
            s["labels"]["agg"] for s in fleet_burn.snapshot()["series"]
        }
        assert aggs == {"worst", "weighted"}
        violations = registry.get("slo_node_violations_total").snapshot()
        assert sum(s["value"] for s in violations["series"]) > 0
        assert live.exporter.path.exists()


class TestFleetStreamDeterminism:
    @staticmethod
    def canonical(records):
        volatile = {"wall", "created_unix"}
        out = []
        for record in records:
            record = {k: v for k, v in record.items() if k not in volatile}
            if record["t"] == "profile":
                # Phase totals are wall time, like "wall"; the phase
                # names and call counts are not.
                record["phases"] = {
                    name: entry["calls"]
                    for name, entry in record["phases"].items()
                }
            out.append(record)
        return out

    def test_two_seeded_runs_stream_identically(self, tmp_path):
        _, first = stream_fleet(tmp_path, name="a")
        _, second = stream_fleet(tmp_path, name="b")
        assert any(record["t"] == "profile" for record in first)
        assert self.canonical(first) == self.canonical(second)

    def test_streamed_run_matches_unobserved_run(self, tmp_path):
        observed, _ = stream_fleet(tmp_path)
        plain = run_fleet_scenario(fleet_config(), scheduler=scheduler())
        assert_fleets_identical(observed, plain)

    def test_disabled_fleet_run_after_obs_is_identical(self, tmp_path):
        baseline = run_fleet_scenario(fleet_config(), scheduler=scheduler())
        stream_fleet(tmp_path)  # enables and disables a full session
        after = run_fleet_scenario(fleet_config(), scheduler=scheduler())
        assert_fleets_identical(baseline, after)
