import numpy as np
import pytest

from repro.cluster import ClusterEngine
from repro.models import FeatureConfig, Predictor, SignatureLibrary
from repro.orchestrator import (
    AdriasPolicy,
    AllLocalPolicy,
    AllRemotePolicy,
    RandomPolicy,
    RoundRobinPolicy,
)
from repro.workloads import (
    MEMCACHED,
    MemoryMode,
    REDIS,
    ibench_profile,
    spark_profile,
)


class StubPredictor(Predictor):
    """Predictor with scripted performance estimates (no training)."""

    def __init__(self, estimates: dict[str, dict[MemoryMode, float]]):
        config = FeatureConfig()
        signatures = SignatureLibrary(feature_config=config)
        for name in estimates:
            signatures.add(name, np.ones((10, config.n_metrics)))
        super().__init__(
            system_state=None, be_performance=None, lc_performance=None,
            signatures=signatures, feature_config=config,
        )
        self._estimates = estimates
        self.capture_calls: list[str] = []

    def predict_performance(self, profile, history_raw, mode):
        return self._estimates[profile.name][mode]

    def predict_both_modes(self, profile, history_raw, deadline_s=None):
        return dict(self._estimates[profile.name])


@pytest.fixture
def engine():
    return ClusterEngine()


class TestBaselines:
    def test_all_local(self, engine):
        policy = AllLocalPolicy()
        assert policy.decide(spark_profile("gmm"), engine) is MemoryMode.LOCAL
        assert policy.name == "all-local"

    def test_all_remote(self, engine):
        assert AllRemotePolicy().decide(REDIS, engine) is MemoryMode.REMOTE

    def test_round_robin_alternates(self, engine):
        policy = RoundRobinPolicy()
        modes = [policy.decide(REDIS, engine) for _ in range(4)]
        assert modes == [
            MemoryMode.LOCAL, MemoryMode.REMOTE,
            MemoryMode.LOCAL, MemoryMode.REMOTE,
        ]

    def test_random_roughly_balanced_and_seeded(self, engine):
        a = RandomPolicy(seed=5)
        b = RandomPolicy(seed=5)
        modes_a = [a.decide(REDIS, engine) for _ in range(100)]
        modes_b = [b.decide(REDIS, engine) for _ in range(100)]
        assert modes_a == modes_b
        remote_count = sum(1 for m in modes_a if m is MemoryMode.REMOTE)
        assert 30 <= remote_count <= 70


class TestStaticThresholdPolicy:
    def test_offloads_by_isolated_ratio(self, engine):
        from repro.orchestrator import StaticThresholdPolicy

        policy = StaticThresholdPolicy(threshold=1.3)
        assert policy.decide(spark_profile("gmm"), engine) is MemoryMode.REMOTE
        assert policy.decide(spark_profile("nweight"), engine) is MemoryMode.LOCAL

    def test_blind_to_system_state(self, engine):
        """The decision ignores current pressure entirely."""
        from repro.orchestrator import StaticThresholdPolicy

        policy = StaticThresholdPolicy(threshold=1.3)
        before = policy.decide(spark_profile("gmm"), engine)
        for _ in range(16):
            engine.deploy(ibench_profile("memBw"), MemoryMode.REMOTE,
                          duration_s=1e6)
        after = policy.decide(spark_profile("gmm"), engine)
        assert before is after is MemoryMode.REMOTE

    def test_interference_kept_local(self, engine):
        from repro.orchestrator import StaticThresholdPolicy

        policy = StaticThresholdPolicy()
        assert policy.decide(ibench_profile("memBw"), engine) is MemoryMode.LOCAL

    def test_invalid_threshold(self):
        from repro.orchestrator import StaticThresholdPolicy

        with pytest.raises(ValueError):
            StaticThresholdPolicy(threshold=0.9)


class TestAdriasBEPolicy:
    """mode = local if t_local < beta * t_remote else remote (§V-C)."""

    def test_clear_remote_penalty_stays_local(self, engine):
        stub = StubPredictor({"nweight": {MemoryMode.LOCAL: 100.0,
                                          MemoryMode.REMOTE: 200.0}})
        policy = AdriasPolicy(stub, beta=0.7)
        assert policy.decide(spark_profile("nweight"), engine) is MemoryMode.LOCAL

    def test_overlapping_estimates_offloaded(self, engine):
        stub = StubPredictor({"gmm": {MemoryMode.LOCAL: 100.0,
                                      MemoryMode.REMOTE: 110.0}})
        policy = AdriasPolicy(stub, beta=0.7)
        assert policy.decide(spark_profile("gmm"), engine) is MemoryMode.REMOTE

    def test_beta_one_prefers_local(self, engine):
        stub = StubPredictor({"gmm": {MemoryMode.LOCAL: 100.0,
                                      MemoryMode.REMOTE: 101.0}})
        policy = AdriasPolicy(stub, beta=1.0)
        assert policy.decide(spark_profile("gmm"), engine) is MemoryMode.LOCAL

    def test_beta_threshold_boundary(self, engine):
        stub = StubPredictor({"gmm": {MemoryMode.LOCAL: 80.0,
                                      MemoryMode.REMOTE: 100.0}})
        # local < beta * remote: 80 < 0.8*100 is false -> remote
        assert AdriasPolicy(stub, beta=0.8).decide(
            spark_profile("gmm"), engine
        ) is MemoryMode.REMOTE
        # 80 < 0.81 * 100 -> local
        assert AdriasPolicy(stub, beta=0.81).decide(
            spark_profile("gmm"), engine
        ) is MemoryMode.LOCAL


class TestAdriasLCPolicy:
    """mode = remote if p99_remote <= QoS else local (§V-C)."""

    def test_remote_within_qos_offloaded(self, engine):
        stub = StubPredictor({"redis": {MemoryMode.LOCAL: 1.5,
                                        MemoryMode.REMOTE: 2.0}})
        policy = AdriasPolicy(stub, qos_p99_ms={"redis": 3.0})
        assert policy.decide(REDIS, engine) is MemoryMode.REMOTE

    def test_remote_violating_qos_stays_local(self, engine):
        stub = StubPredictor({"redis": {MemoryMode.LOCAL: 1.5,
                                        MemoryMode.REMOTE: 4.0}})
        policy = AdriasPolicy(stub, qos_p99_ms={"redis": 3.0})
        assert policy.decide(REDIS, engine) is MemoryMode.LOCAL

    def test_default_qos_used_when_unlisted(self, engine):
        stub = StubPredictor({"memcached": {MemoryMode.LOCAL: 0.8,
                                            MemoryMode.REMOTE: 1.2}})
        policy = AdriasPolicy(stub, qos_p99_ms={"redis": 3.0},
                              default_qos_ms=1.0)
        assert policy.decide(MEMCACHED, engine) is MemoryMode.LOCAL


class TestAdriasSpecialCases:
    def test_interference_kept_local(self, engine):
        stub = StubPredictor({})
        policy = AdriasPolicy(stub)
        assert policy.decide(ibench_profile("memBw"), engine) is MemoryMode.LOCAL

    def test_unknown_application_captured_and_sent_remote(self, engine):
        """§V-C: no signature -> schedule on remote and capture."""
        stub = StubPredictor({})
        policy = AdriasPolicy(stub)
        profile = spark_profile("scan")
        assert not stub.has_signature(profile)
        mode = policy.decide(profile, engine)
        assert mode is MemoryMode.REMOTE
        assert stub.has_signature(profile)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            AdriasPolicy(StubPredictor({}), beta=0.0)
        with pytest.raises(ValueError):
            AdriasPolicy(StubPredictor({}), beta=1.5)

    def test_policy_name_includes_beta(self):
        assert AdriasPolicy(StubPredictor({}), beta=0.8).name == "adrias(b=0.8)"


class TestAdriasTickHooks:
    def test_decisions_register_no_tick_hook(self, engine):
        """Ŝ is computed afresh per decision, so there is no per-tick
        state for the engine to invalidate."""
        stub = StubPredictor({"gmm": {MemoryMode.LOCAL: 100.0,
                                      MemoryMode.REMOTE: 200.0}})
        policy = AdriasPolicy(stub, beta=0.7)
        policy.decide(spark_profile("gmm"), engine)
        policy.decide(spark_profile("gmm"), engine)
        assert engine._tick_hooks == []
