"""Regression gate: metric extraction, floor math, baseline files."""

import json
from pathlib import Path

import pytest

from repro.obs.perf.gate import (
    GateCheck,
    compare_reports,
    extract_metrics,
    load_report,
)

BASELINES = Path(__file__).resolve().parents[3] / "benchmarks" / "baselines"


def engine_report(idle=50_000.0, congested=8_000.0, d1=200.0, d64=300.0):
    return {
        "kind": "engine",
        "scales": {
            "idle": {"ticks_per_sec": idle},
            "congested": {"ticks_per_sec": congested},
        },
        "decisions": {
            "1": {"decisions_per_sec": d1},
            "64": {"decisions_per_sec": d64},
        },
    }


class TestExtraction:
    def test_engine_metrics(self):
        metrics = extract_metrics(engine_report())
        assert metrics["ticks_per_sec[idle]"] == 50_000.0
        assert metrics["decisions_per_sec[64]"] == 300.0

    def test_predictor_metrics(self):
        """The LSTM's inference-mode speedup is read from an engine report."""
        report = {**engine_report(), "lstm": {"speedup": 1.2}}
        assert extract_metrics(report)["lstm_inference_speedup"] == 1.2
        assert "lstm_inference_speedup" not in extract_metrics(engine_report())

    def test_unrecognized_report_raises(self):
        with pytest.raises(ValueError, match="unrecognized"):
            extract_metrics({"something": "else"})


class TestFloorMath:
    def test_floor_combines_tolerance_and_headroom(self):
        result = compare_reports(
            engine_report(), engine_report(), tolerance=0.2, headroom=4.0
        )
        check = next(c for c in result.checks if c.name == "ticks_per_sec[idle]")
        assert check.floor == pytest.approx(50_000.0 * 0.8 / 4.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            compare_reports(engine_report(), engine_report(), tolerance=1.0)
        with pytest.raises(ValueError):
            compare_reports(engine_report(), engine_report(), headroom=0.5)

    def test_check_ratio_and_ok(self):
        check = GateCheck(name="m", baseline=100.0, current=90.0, floor=80.0)
        assert check.ratio == pytest.approx(0.9)
        assert check.ok
        assert not GateCheck(name="m", baseline=100.0, current=79.0, floor=80.0).ok


class TestVerdicts:
    def test_identical_reports_pass(self):
        result = compare_reports(engine_report(), engine_report())
        assert result.ok and bool(result)
        assert result.format().endswith("PASS")

    def test_faster_than_baseline_passes(self):
        current = engine_report(idle=90_000.0, congested=20_000.0,
                                d1=400.0, d64=700.0)
        assert compare_reports(engine_report(), current).ok

    def test_regression_beyond_tolerance_fails(self):
        current = engine_report(congested=8_000.0 * 0.5)
        result = compare_reports(engine_report(), current, tolerance=0.2)
        assert not result.ok
        assert [c.name for c in result.failures] == ["ticks_per_sec[congested]"]
        assert "REGRESSED" in result.format()
        assert result.format().splitlines()[-1].startswith("FAIL")

    def test_regression_within_tolerance_passes(self):
        current = engine_report(congested=8_000.0 * 0.85)
        assert compare_reports(engine_report(), current, tolerance=0.2).ok

    def test_headroom_absorbs_slow_runner(self):
        halved = engine_report(idle=25_000.0, congested=4_000.0,
                               d1=100.0, d64=150.0)
        assert not compare_reports(engine_report(), halved, tolerance=0.2).ok
        assert compare_reports(
            engine_report(), halved, tolerance=0.2, headroom=3.0
        ).ok

    def test_only_shared_metrics_compared(self):
        smoke = engine_report()
        del smoke["decisions"]["64"]
        del smoke["scales"]["idle"]
        result = compare_reports(engine_report(), smoke)
        assert {c.name for c in result.checks} == {
            "ticks_per_sec[congested]", "decisions_per_sec[1]",
        }

    def test_no_shared_metrics_is_a_failure(self):
        fleet_only = {"kind": "engine", "fleet": {"8": {"fleet_ticks_per_sec": 4e3}}}
        result = compare_reports(engine_report(), fleet_only)
        assert not result.ok
        assert "no comparable metrics" in result.format()


class TestReportFiles:
    def test_load_report_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="bench_engine"):
            load_report(tmp_path / "nope.json")

    def test_load_report_round_trips(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(engine_report()))
        assert load_report(path) == engine_report()

    @pytest.mark.parametrize("name", ["BENCH_engine.json"])
    def test_committed_baselines_pass_against_themselves(self, name):
        baseline = load_report(BASELINES / name)
        result = compare_reports(baseline, baseline)
        assert result.checks, f"{name} produced no gateable metrics"
        assert result.ok
