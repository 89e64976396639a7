"""Profiling harness: the fabricated pipeline, decision-path health,
every layer profiled."""

import numpy as np

from repro.models.features import FeatureConfig
from repro.obs.perf.profile import fabricate_predictor, profile_run
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
    def test_decision_path_stays_healthy(self):
        # The fabricated models must keep the AdriasPolicy on its primary
        # path: no inf/NaN predictions, no circuit-breaker fallbacks.
        # (Calibration failure would silently measure the fallback ladder.)
        from repro.cluster.engine import ClusterEngine
        from repro.hardware.config import TestbedConfig
        from repro.hardware.testbed import Testbed
        from repro.obs.perf.profile import _calibrate
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
