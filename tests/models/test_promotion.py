"""Gated model promotion tests (Fig. 15 retraining loop hardening)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.faults import FaultPlan, TrainingChaos
from repro.models import (
    GateConfig,
    PerformancePredictor,
    Predictor,
    PromotionDecision,
    SystemStatePredictor,
    build_performance_dataset,
    build_system_state_dataset,
    gated_retrain,
    retrain_on_drift,
)
from repro.models.promotion import _holdout_split
from repro.nn import RecoveryPolicy
from repro.workloads import WorkloadKind, spark_profile
from tests.helpers import batched_reference

BE = WorkloadKind.BEST_EFFORT
LC = WorkloadKind.LATENCY_CRITICAL


@pytest.fixture(scope="module")
def trained_predictor(tiny_traces, signatures, feature_config):
    """Predictor with a strong BE incumbent and an empty LC slot."""
    ss_data = build_system_state_dataset(
        tiny_traces, feature_config, stride_s=20.0
    )
    system_state = SystemStatePredictor(feature_config=feature_config, seed=0)
    system_state.fit(ss_data.windows, ss_data.targets, epochs=15)
    be_data = build_performance_dataset(
        tiny_traces, signatures, BE, feature_config
    )
    be = PerformancePredictor(feature_config=feature_config, seed=1)
    be.fit(
        be_data.state, be_data.signature, be_data.mode,
        system_state.predict(be_data.state), be_data.targets, epochs=25,
    )
    return Predictor(
        system_state=system_state, be_performance=be,
        signatures=signatures, feature_config=feature_config,
    )


class TestGateConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GateConfig(tolerance=-0.1)
        with pytest.raises(ValueError):
            GateConfig(holdout_fraction=1.0)
        with pytest.raises(ValueError):
            GateConfig(min_holdout=1)
        with pytest.raises(ValueError):
            GateConfig(timeout_s=0.0)

    def test_holdout_split_is_seeded_and_disjoint(self):
        train1, hold1 = _holdout_split(40, GateConfig(seed=3))
        train2, hold2 = _holdout_split(40, GateConfig(seed=3))
        assert np.array_equal(train1, train2)
        assert np.array_equal(hold1, hold2)
        assert set(train1).isdisjoint(hold1)
        assert len(train1) + len(hold1) == 40
        _, other = _holdout_split(40, GateConfig(seed=4))
        assert not np.array_equal(hold1, other)

    def test_tiny_corpus_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            _holdout_split(5, GateConfig())


class TestGatedRetrain:
    def test_no_incumbent_always_promotes(self, trained_predictor, tiny_traces):
        updated, decisions = gated_retrain(
            trained_predictor, tiny_traces, kinds=(LC,), epochs=5,
        )
        (decision,) = decisions
        assert decision.kind == "latency_critical"
        assert decision.promoted and decision.reason == "no_incumbent"
        assert decision.incumbent_r2 is None
        assert updated.lc_performance is not None
        assert updated.be_performance is trained_predictor.be_performance

    def test_regressing_candidate_is_rejected(
        self, trained_predictor, tiny_traces
    ):
        # 1 epoch cannot beat the 25-epoch incumbent within tolerance.
        updated, decisions = gated_retrain(
            trained_predictor, tiny_traces, kinds=(BE,), epochs=1,
            gate=GateConfig(tolerance=0.0),
        )
        (decision,) = decisions
        assert not decision.promoted and decision.reason == "regression"
        assert decision.candidate_r2 is not None
        assert decision.candidate_r2 < decision.incumbent_r2
        # The serving predictor keeps the incumbent model.
        assert updated.be_performance is trained_predictor.be_performance

    def test_huge_tolerance_promotes(self, trained_predictor, tiny_traces):
        updated, decisions = gated_retrain(
            trained_predictor, tiny_traces, kinds=(BE,), epochs=1,
            gate=GateConfig(tolerance=1e9),
        )
        (decision,) = decisions
        assert decision.promoted and decision.reason == "promoted"
        assert updated.be_performance is not trained_predictor.be_performance

    def test_promoted_candidate_uses_its_own_encodings(
        self, trained_predictor, tiny_traces, signatures, feature_config
    ):
        # An incumbent fit on the candidate's own training split shares
        # its metric scaler, so a scaled signature has the same bytes
        # under both models: only per-model caches keep them apart.
        data = build_performance_dataset(tiny_traces, signatures, BE, feature_config)
        train = data.subset(_holdout_split(len(data), GateConfig())[0])
        system_state = trained_predictor.system_state
        incumbent = PerformancePredictor(feature_config=feature_config, seed=1)
        incumbent.fit(
            train.state, train.signature, train.mode,
            system_state.predict(train.state), train.targets, epochs=2,
        )
        predictor = Predictor(
            system_state=system_state, be_performance=incumbent,
            signatures=signatures, feature_config=feature_config,
        )
        profile = spark_profile("gmm")
        history = tiny_traces[-1].window(600.0, feature_config.history_s)
        updated, (decision,) = gated_retrain(
            predictor, tiny_traces, kinds=(BE,), epochs=1,
            gate=GateConfig(tolerance=1e9),
        )
        assert decision.promoted
        # The incumbent serves until the swap, caching its own encoding.
        before = predictor.predict_both_modes(profile, history)
        estimates = updated.predict_both_modes(profile, history)
        assert estimates != before
        for mode, value in batched_reference(updated, profile, history).items():
            assert estimates[mode] == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_timeout_abandons_candidate(self, trained_predictor, tiny_traces):
        updated, decisions = gated_retrain(
            trained_predictor, tiny_traces, kinds=(BE,), epochs=2,
            gate=GateConfig(timeout_s=1e-9),
        )
        (decision,) = decisions
        assert not decision.promoted and decision.reason == "timeout"
        assert decision.elapsed_s > 0
        assert updated.be_performance is trained_predictor.be_performance

    def test_injected_retrain_timeout_fault(
        self, trained_predictor, tiny_traces
    ):
        plan = FaultPlan.sample_trainer(seed=0, epochs=8)
        # Strip the other trainer faults so only the timeout window fires.
        timeout_only = FaultPlan(
            seed=plan.seed,
            faults=plan.of_kind("retrain_timeout"),
        )
        chaos = TrainingChaos(timeout_only)
        # The sampled window covers retrain-attempt index 1, so the first
        # kind retrains normally and the second one hits the timeout.
        _, decisions = gated_retrain(
            trained_predictor, tiny_traces, kinds=(BE, LC), epochs=2,
            chaos=chaos,
        )
        assert decisions[0].reason != "timeout"
        assert decisions[1].reason == "timeout"
        assert chaos.injected["retrain_timeouts"] == 1

    def test_interference_kind_rejected(self, trained_predictor, tiny_traces):
        with pytest.raises(ValueError):
            gated_retrain(
                trained_predictor, tiny_traces,
                kinds=(WorkloadKind.INTERFERENCE,),
            )

    def test_requires_system_state(self, signatures, feature_config, tiny_traces):
        bare = Predictor(
            system_state=None, signatures=signatures,
            feature_config=feature_config,
        )
        with pytest.raises(ValueError, match="system-state"):
            gated_retrain(bare, tiny_traces)

    def test_decisions_are_observable(self, trained_predictor, tiny_traces):
        obs.enable()
        try:
            gated_retrain(
                trained_predictor, tiny_traces, kinds=(BE,), epochs=1,
                gate=GateConfig(tolerance=1e9),
            )
            counter = obs.metrics().get("model_promotions_total")
            value = counter.labels(
                kind="best_effort", outcome="promoted"
            ).snapshot()
            assert value == 1.0
            instants = [
                e for e in obs.tracer().events
                if e["name"] == "model_promotion"
            ]
            assert instants and instants[0]["args"]["promoted"] is True
        finally:
            obs.disable()

    def test_decision_to_dict_round_trips(self):
        decision = PromotionDecision(
            kind="best_effort", promoted=False, reason="regression",
            candidate_r2=0.4, incumbent_r2=0.8, elapsed_s=1.5,
        )
        assert decision.to_dict()["reason"] == "regression"
        assert decision.to_dict()["candidate_r2"] == 0.4


class TestDriftGateWiring:
    def test_gated_path_used_when_gate_given(self, monkeypatch):
        policy = SimpleNamespace(predictor=object())
        fresh = object()
        calls = []

        def fake_gated(predictor, traces, *, kinds, epochs, seed, gate, chaos,
                       recovery=None):
            calls.append((predictor, gate, chaos))
            return fresh, [
                PromotionDecision(kind="be", promoted=True, reason="promoted")
            ]

        monkeypatch.setattr(
            "repro.models.promotion.gated_retrain", fake_gated
        )
        gate = GateConfig(tolerance=0.5)
        callback = retrain_on_drift(
            policy, ["corpus"], kinds=(BE,), epochs=3, gate=gate,
        )
        stale = policy.predictor
        callback(SimpleNamespace(stream="be"))
        assert policy.predictor is fresh
        assert calls == [(stale, gate, None)]

    def test_ungated_path_unchanged(self, monkeypatch):
        policy = SimpleNamespace(predictor=object())
        fresh = object()
        monkeypatch.setattr(
            "repro.models.retraining.retrain",
            lambda *a, **k: fresh,
        )
        callback = retrain_on_drift(policy, ["corpus"], kinds=(BE,))
        callback(SimpleNamespace(stream="be"))
        assert policy.predictor is fresh


class TestRecoveryDuringRetrain:
    def test_nan_grad_fault_recovers_and_still_gates(
        self, trained_predictor, tiny_traces
    ):
        plan = FaultPlan.sample_trainer(seed=1, epochs=8)
        nan_only = FaultPlan(seed=plan.seed, faults=plan.of_kind("nan_grad"))
        chaos = TrainingChaos(nan_only)
        _, decisions = gated_retrain(
            trained_predictor, tiny_traces, kinds=(BE,), epochs=8,
            gate=GateConfig(tolerance=1e9), chaos=chaos,
            recovery=RecoveryPolicy(),
        )
        assert chaos.injected["nan_grad_epochs"], "fault never fired"
        # Recovery let the fit finish; the gate then ruled on the result.
        assert decisions[0].reason in ("promoted", "regression")
