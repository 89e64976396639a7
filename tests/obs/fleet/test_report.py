"""Fleet report/dashboard rendering and the ``obs report --fleet`` CLI."""

import pytest

from repro import obs
from repro.__main__ import main
from repro.cluster.fleet import LeastLoadedPlacement
from repro.cluster.fleet_scenario import FleetScenarioConfig, run_fleet_scenario
from repro.cluster.scenario import ScenarioConfig
from repro.hardware.pool import RemotePoolConfig
from repro.obs.fleet.report import (
    fleet_summary,
    format_fleet_report,
    render_fleet_frame,
)
from repro.orchestrator.policies import InterferenceThresholdPolicy


def synthetic_records():
    return [
        {"t": "meta", "objective": 0.99, "slo_windows": [60.0]},
        {"t": "tick", "node": "n0", "clock": 1.0, "sim": 1.0,
         "running": 2, "link_util": 0.5},
        {"t": "tick", "node": "n1", "clock": 1.0, "sim": 1.0,
         "running": 1, "link_util": 0.25},
        {"t": "finish", "node": "n0", "clock": 2.0, "app": "redis",
         "kind": "lc", "mode": "remote", "p99_ms": 9.0, "violated": True},
        {"t": "finish", "node": "n0", "clock": 3.0, "app": "scan",
         "kind": "be", "mode": "local", "p99_ms": None, "violated": None},
        {"t": "finish", "node": "n1", "clock": 3.0, "app": "redis",
         "kind": "lc", "mode": "remote", "p99_ms": 1.0, "violated": False},
        {"t": "pool", "sim": 4.0, "regime": "pooled",
         "throttled": ["n0"], "factors": {"n0": 0.4}, "bw_util": 1.4},
        {"t": "event", "kind": "pool_throttle", "sim": 4.0,
         "regime": "pooled", "nodes": ["n0"]},
        {"t": "event", "kind": "pool_throttle", "sim": 5.0,
         "regime": "pooled", "nodes": []},  # recovery, not an onset
        {"t": "end", "clock": 6.0},
    ]


class TestFleetSummary:
    def test_per_node_aggregation(self):
        summary = fleet_summary(synthetic_records())
        nodes = summary["nodes"]
        assert list(nodes) == ["n0", "n1"]
        n0 = nodes["n0"]
        assert n0["ticks"] == 1
        assert n0["finished"] == 2
        assert n0["remote"] == 1
        assert n0["offload_rate"] == pytest.approx(0.5)
        assert n0["violations"] == 1
        assert n0["throttled_ticks"] == 1
        assert n0["lc_p99_ms"] == pytest.approx(9.0)
        assert n0["peak_burn"]["60"] > 0.0
        n1 = nodes["n1"]
        assert n1["violations"] == 0
        assert n1["throttled_ticks"] == 0

    def test_pool_section_counts_onsets_only(self):
        summary = fleet_summary(synthetic_records())
        pool = summary["pool"]
        assert pool["records"] == 1
        assert pool["throttle_events"] == 1  # the empty set is recovery
        assert pool["regime"] == "pooled"
        assert pool["bw_util"] == pytest.approx(1.4)

    def test_single_node_stream_yields_empty_node_table(self):
        records = [
            {"t": "meta", "objective": 0.99},
            {"t": "tick", "clock": 1.0, "sim": 1.0, "running": 1},
        ]
        summary = fleet_summary(records)
        assert summary["nodes"] == {}


class TestRendering:
    def test_frame_renders_per_node_rows(self):
        frame = render_fleet_frame(synthetic_records())
        assert "Fleet nodes" in frame
        assert "n0" in frame and "n1" in frame
        assert "Rack pool arbitration" in frame
        assert "finished" in frame  # end record seen

    def test_report_totals(self):
        report = format_fleet_report(synthetic_records())
        assert "Fleet stream report" in report
        lines = {
            key.strip(): value.strip()
            for key, _, value in (
                line.partition(":") for line in report.splitlines()
            )
            if key.strip() in ("nodes", "finished", "offloaded",
                               "LC violations", "throttled node-ticks")
        }
        assert lines["nodes"] == "2"
        assert lines["finished"] == "3"
        assert lines["offloaded"] == "2"
        assert lines["LC violations"] == "1"
        assert lines["throttled node-ticks"] == "1"

    def test_non_fleet_stream_degrades_gracefully(self):
        records = [
            {"t": "meta"},
            {"t": "tick", "clock": 1.0, "sim": 1.0, "running": 0},
        ]
        frame = render_fleet_frame(records)
        assert "no node-labeled records" in frame


class TestCli:
    @pytest.fixture()
    def stream_path(self, tmp_path):
        live = obs.enable_live(tmp_path / "live", flush_every=1)
        run_fleet_scenario(
            FleetScenarioConfig(
                scenario=ScenarioConfig(
                    duration_s=300.0, spawn_interval=(15.0, 30.0), seed=3
                ),
                n_nodes=2,
                pool=RemotePoolConfig(),
            ),
            scheduler=LeastLoadedPlacement(InterferenceThresholdPolicy()),
        )
        path = live.exporter.path
        obs.disable()
        return path

    def test_watch_fleet_once_renders_node_rows(self, stream_path, capsys):
        assert main(
            ["obs", "watch", str(stream_path), "--fleet", "--once"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fleet observability" in out
        assert "n0" in out and "n1" in out

    def test_report_fleet(self, stream_path, capsys):
        assert main(["obs", "report", str(stream_path), "--fleet"]) == 0
        out = capsys.readouterr().out
        assert "Fleet stream report" in out
        assert "n0" in out and "n1" in out

    def test_report_without_fleet_renders_single_frame(
        self, stream_path, capsys
    ):
        assert main(["obs", "report", str(stream_path)]) == 0
        assert "Fleet stream report" not in capsys.readouterr().out

    def test_report_missing_stream_errors(self, tmp_path, capsys):
        assert main(
            ["obs", "report", str(tmp_path / "nope.jsonl"), "--fleet"]
        ) == 2
        assert "no stream" in capsys.readouterr().err

    def test_report_usage_error(self, capsys):
        assert main(["obs", "report"]) == 2
        assert "usage" in capsys.readouterr().err
