import numpy as np
import pytest

from repro.cluster import ClusterEngine
from repro.models import FeatureConfig, Predictor, SignatureLibrary
from repro.orchestrator import Orchestrator, TrainingBudget
from repro.orchestrator.policies import AdriasPolicy
from repro.workloads import MemoryMode, ibench_profile, spark_profile


class StubPredictor(Predictor):
    def __init__(self, estimates):
        config = FeatureConfig()
        signatures = SignatureLibrary(feature_config=config)
        for name in estimates:
            signatures.add(name, np.ones((10, config.n_metrics)))
        super().__init__(system_state=None, signatures=signatures,
                         feature_config=config)
        self._estimates = estimates

    def predict_both_modes(self, profile, history_raw, deadline_s=None):
        return dict(self._estimates[profile.name])


class TestTrainingBudget:
    def test_presets(self):
        paper = TrainingBudget.paper()
        assert paper.n_scenarios == 72
        assert paper.scenario_duration_s == 3600.0
        quick = TrainingBudget.quick()
        assert quick.n_scenarios < paper.n_scenarios

    def test_scenario_configs_cover_spawn_mix(self):
        budget = TrainingBudget(n_scenarios=10)
        configs = budget.scenario_configs()
        assert len(configs) == 10
        highs = {c.spawn_interval[1] for c in configs}
        assert highs == {20, 30, 40, 50, 60}  # §V-B1 congestion mix
        assert len({c.seed for c in configs}) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingBudget(n_scenarios=0)


class TestOrchestrator:
    def test_schedule_records_decisions(self):
        stub = StubPredictor({
            "gmm": {MemoryMode.LOCAL: 100.0, MemoryMode.REMOTE: 105.0},
            "nweight": {MemoryMode.LOCAL: 95.0, MemoryMode.REMOTE: 190.0},
        })
        orchestrator = Orchestrator(AdriasPolicy(stub, beta=0.8))
        engine = ClusterEngine()
        assert orchestrator.schedule(spark_profile("gmm"), engine) is MemoryMode.REMOTE
        assert orchestrator.schedule(spark_profile("nweight"), engine) is MemoryMode.LOCAL
        assert orchestrator.decisions == [
            ("gmm", MemoryMode.REMOTE), ("nweight", MemoryMode.LOCAL)
        ]
        assert orchestrator.offload_fraction == pytest.approx(0.5)

    def test_interference_not_counted(self):
        stub = StubPredictor({})
        orchestrator = Orchestrator(AdriasPolicy(stub))
        engine = ClusterEngine()
        orchestrator.schedule(ibench_profile("cpu"), engine)
        assert orchestrator.decisions == []
        assert orchestrator.offload_fraction == 0.0

    def test_callable_protocol(self):
        stub = StubPredictor({
            "gmm": {MemoryMode.LOCAL: 100.0, MemoryMode.REMOTE: 105.0},
        })
        orchestrator = Orchestrator(AdriasPolicy(stub, beta=0.8))
        assert orchestrator(spark_profile("gmm"), ClusterEngine()) is MemoryMode.REMOTE
