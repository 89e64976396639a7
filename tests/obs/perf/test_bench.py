"""Engine benchmark harness: report shape, decision-path health."""

import numpy as np
import pytest

from repro.models.features import FeatureConfig
from repro.obs.perf.bench import (
    SCHEMA_VERSION,
    bench_decisions,
    bench_ticks,
    fabricate_predictor,
    format_report,
    profile_run,
    run_engine_bench,
)
from repro.obs.perf.gate import compare_reports, extract_metrics
from repro.workloads import MemoryMode, spark_profile


class TestFabricatedPredictor:
    def test_full_inference_pipeline_runs(self):
        config = FeatureConfig()
        predictor = fabricate_predictor(config, lstm_hidden=4)
        history = np.random.default_rng(0).uniform(
            0.5, 2.0, size=(config.history_raw_steps, config.n_metrics)
        )
        estimates = predictor.predict_both_modes(spark_profile("gmm"), history)
        assert set(estimates) == {MemoryMode.LOCAL, MemoryMode.REMOTE}
        assert all(np.isfinite(v) and v > 0 for v in estimates.values())


class TestSections:
    def test_bench_ticks_scales_and_shape(self):
        scales = bench_ticks(duration_s=30.0, repeats=1, seed=0)
        assert set(scales) == {"idle", "relaxed", "congested"}
        for entry in scales.values():
            assert entry["ticks"] > 0
            assert entry["ticks_per_sec"] > 0
        # Congestion adds work per tick.
        assert scales["congested"]["mean_apps"] > scales["idle"]["mean_apps"]

    def test_bench_decisions_counts_candidates(self):
        """One decision per tick, keyed by that candidate count."""
        results = bench_decisions(repeats=1, hidden=4)
        assert set(results) == {"1"}
        assert results["1"]["candidates"] == 1
        assert results["1"]["decisions_per_sec"] > 0

    def test_decision_path_stays_healthy(self):
        # The fabricated models must keep the AdriasPolicy on its primary
        # path: no inf/NaN predictions, no circuit-breaker fallbacks.
        # (Calibration failure would silently measure the fallback ladder.)
        from repro.cluster.engine import ClusterEngine
        from repro.hardware.config import TestbedConfig
        from repro.hardware.testbed import Testbed
        from repro.obs.perf.bench import _calibrate
        from repro.orchestrator.policies import AdriasPolicy

        config = FeatureConfig()
        predictor = fabricate_predictor(config, lstm_hidden=4)
        profile = spark_profile("gmm")
        predictor.signatures.capture(profile)
        engine = ClusterEngine(testbed=Testbed(TestbedConfig(seed=0)))
        engine.deploy(spark_profile("sort"), MemoryMode.LOCAL)
        engine.run_for(config.history_s + 5.0)
        _calibrate(predictor, engine.trace)
        policy = AdriasPolicy(predictor)
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(3):
                policy(profile, engine)
        assert policy.degraded_decisions == 0

    def test_profile_run_records_every_layer(self):
        acct = profile_run(duration_s=40.0, hidden=4, seed=0)
        snapshot = acct.snapshot()
        for phase in ("engine.tick", "engine.advance", "predictor.window",
                      "predictor.system_state", "predictor.forward",
                      "policy.decide"):
            assert phase in snapshot, phase
            assert snapshot[phase]["calls"] > 0


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_engine_bench(
            smoke=True, repeats=1, hidden=4,
            tick_duration_s=20.0, phase_duration_s=20.0,
        )

    def test_report_shape(self, report):
        assert report["schema"] == SCHEMA_VERSION
        assert report["kind"] == "engine"
        assert report["smoke"] is True
        assert set(report["scales"]) == {"idle", "relaxed", "congested"}
        assert set(report["decisions"]) == {"1"}
        assert report["lstm"]["speedup"] > 0
        assert report["phases"]["engine.tick"]["calls"] > 0

    def test_report_is_gateable(self, report):
        metrics = extract_metrics(report)
        assert "ticks_per_sec[congested]" in metrics
        assert "decisions_per_sec[1]" in metrics
        assert "lstm_inference_speedup" in metrics
        assert compare_reports(report, report).ok

    def test_format_report_mentions_every_section(self, report):
        text = format_report(report)
        assert "ticks/sec" in text
        assert "decisions/sec" in text
        assert "LSTM forward" in text
        assert "phase breakdown" in text
        assert "policy.decide" in text
