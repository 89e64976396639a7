"""AdriasPolicy graceful degradation: deadline, breaker, fallback ladder."""

from types import SimpleNamespace

import pytest

from repro.cluster.engine import ClusterEngine
from repro.faults.breaker import CircuitState
from repro.faults.errors import InferenceTimeout
from repro.orchestrator.policies import (
    AdriasPolicy,
    AllLocalPolicy,
    InterferenceThresholdPolicy,
)
from repro.workloads import MemoryMode, spark_profile
from repro.workloads.ibench import IBENCH


class StubPredictor:
    """Scriptable predictor: healthy estimates, NaNs, or timeouts."""

    def __init__(self, behavior="healthy"):
        self.behavior = behavior
        self.config = SimpleNamespace(history_s=30.0)
        self.calls = 0

    def has_signature(self, profile):
        return True

    def predict_both_modes(self, profile, history, deadline_s=None):
        self.calls += 1
        if self.behavior == "timeout":
            raise InferenceTimeout(latency_s=5.0, deadline_s=deadline_s or 1.0)
        if self.behavior == "nan":
            return {MemoryMode.LOCAL: float("nan"), MemoryMode.REMOTE: 40.0}
        return {MemoryMode.LOCAL: 30.0, MemoryMode.REMOTE: 40.0}


@pytest.fixture
def engine():
    return ClusterEngine()


@pytest.fixture
def profile():
    return spark_profile("scan")


class TestInterferenceThresholdPolicy:
    def test_offloads_on_idle_link(self, engine, profile):
        policy = InterferenceThresholdPolicy(max_link_utilization=0.7)
        assert policy.decide(profile, engine) is MemoryMode.REMOTE

    def test_keeps_local_on_busy_link(self, engine, profile):
        # Two memBw trashers push the idle link well past 0.2 utilization.
        for _ in range(2):
            engine.deploy(IBENCH["memBw"], MemoryMode.REMOTE, duration_s=500.0)
        policy = InterferenceThresholdPolicy(max_link_utilization=0.2)
        assert policy.decide(profile, engine) is MemoryMode.LOCAL

    def test_interference_stays_local(self, engine):
        policy = InterferenceThresholdPolicy()
        assert policy.decide(IBENCH["memBw"], engine) is MemoryMode.LOCAL

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            InterferenceThresholdPolicy(max_link_utilization=0.0)


class TestBreakerIntegration:
    def test_healthy_path_keeps_circuit_closed(self, engine, profile):
        policy = AdriasPolicy(StubPredictor("healthy"), beta=0.8)
        mode = policy.decide(profile, engine)
        # 30 < 0.8 * 40 -> local wins the beta-slack comparison.
        assert mode is MemoryMode.LOCAL
        assert policy.breaker.state is CircuitState.CLOSED
        assert policy.degraded_decisions == 0

    def test_timeouts_open_the_circuit(self, engine, profile):
        predictor = StubPredictor("timeout")
        policy = AdriasPolicy(predictor, failure_threshold=3)
        for _ in range(3):
            policy.decide(profile, engine)
        assert policy.breaker.state is CircuitState.OPEN
        assert policy.degraded_decisions == 3
        # While open the predictor is not consulted at all.
        calls_before = predictor.calls
        policy.decide(profile, engine)
        assert predictor.calls == calls_before

    def test_nan_estimates_count_as_failures(self, engine, profile):
        policy = AdriasPolicy(StubPredictor("nan"), failure_threshold=2)
        policy.decide(profile, engine)
        policy.decide(profile, engine)
        assert policy.breaker.state is CircuitState.OPEN

    def test_circuit_recloses_after_recovery(self, engine, profile):
        predictor = StubPredictor("timeout")
        policy = AdriasPolicy(
            predictor, failure_threshold=2, cooldown_s=50.0
        )
        policy.decide(profile, engine)
        policy.decide(profile, engine)
        assert policy.breaker.state is CircuitState.OPEN
        predictor.behavior = "healthy"  # the fault window closes
        engine.run_for(60.0)
        policy.decide(profile, engine)  # half-open probe succeeds
        assert policy.breaker.state is CircuitState.CLOSED
        arcs = [(old, new) for _, old, new in policy.breaker.transitions]
        assert arcs == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_type_error_inside_inference_propagates(self, engine, profile):
        """A bug inside inference is not retried as a second forward pass."""
        predictor = StubPredictor("healthy")
        healthy = predictor.predict_both_modes

        def fails_first(profile, history, deadline_s=None):
            if predictor.calls == 0:
                predictor.calls += 1
                raise TypeError("bug inside inference")
            return healthy(profile, history, deadline_s=deadline_s)

        predictor.predict_both_modes = fails_first
        with pytest.raises(TypeError, match="bug inside inference"):
            AdriasPolicy(predictor).decide(profile, engine)
        assert predictor.calls == 1


class TestFallbackLadder:
    def test_fallback_decision_is_audited(self, engine, profile):
        policy = AdriasPolicy(StubPredictor("timeout"))
        policy.decide(profile, engine)
        detail = policy._audit_detail()
        assert detail["reason"].startswith("fallback:")
        assert detail["cause"] == "InferenceTimeout"
        assert "circuit" in detail

    def test_default_ladder_uses_interference_heuristic(self, engine, profile):
        policy = AdriasPolicy(StubPredictor("timeout"))
        # Idle link -> the interference-threshold rung still offloads.
        assert policy.decide(profile, engine) is MemoryMode.REMOTE

    def test_custom_ladder(self, engine, profile):
        policy = AdriasPolicy(
            StubPredictor("timeout"), fallback=(AllLocalPolicy(),)
        )
        assert policy.decide(profile, engine) is MemoryMode.LOCAL
        assert policy._audit_detail()["reason"] == "fallback:all-local"

    def test_exhausted_ladder_ends_static_local(self, engine, profile):
        policy = AdriasPolicy(StubPredictor("timeout"), fallback=())
        assert policy.decide(profile, engine) is MemoryMode.LOCAL
        assert policy._audit_detail()["reason"] == "fallback:static-local"

    def test_broken_rung_is_skipped(self, engine, profile):
        class BrokenPolicy:
            name = "broken"

            def decide(self, profile, engine):
                raise RuntimeError("rung down too")

        policy = AdriasPolicy(
            StubPredictor("timeout"),
            fallback=(BrokenPolicy(), AllLocalPolicy()),
        )
        assert policy.decide(profile, engine) is MemoryMode.LOCAL
        assert policy._audit_detail()["reason"] == "fallback:all-local"


class TestObsIntegration:
    def test_degraded_decision_lands_in_audit_log(self, engine, profile):
        # Regression: the fallback detail carries cause/circuit fields
        # the audit schema must accept (crashed with obs enabled).
        from repro import obs

        obs.enable()
        try:
            policy = AdriasPolicy(StubPredictor("timeout"))
            policy(profile, engine)  # __call__ records into the audit log
            (record,) = obs.audit().records
            assert record.reason.startswith("fallback:")
            assert record.cause == "InferenceTimeout"
            assert record.circuit in {"closed", "open", "half-open"}
            assert record.to_dict()["cause"] == "InferenceTimeout"
        finally:
            obs.disable()


class TestPolicyCheckpointState:
    def test_state_dict_round_trip(self, engine, profile):
        policy = AdriasPolicy(StubPredictor("timeout"), failure_threshold=2)
        policy.decide(profile, engine)
        policy.decide(profile, engine)
        restored = AdriasPolicy(StubPredictor("healthy"), failure_threshold=2)
        restored.load_state_dict(policy.state_dict())
        assert restored.breaker.state is CircuitState.OPEN
        assert restored.breaker.consecutive_failures == 2
