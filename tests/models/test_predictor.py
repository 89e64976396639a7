import numpy as np
import pytest

from repro.models import (
    PerformancePredictor,
    Predictor,
    SystemStatePredictor,
    build_performance_dataset,
    build_system_state_dataset,
)
from repro.workloads import (
    MemoryMode,
    WorkloadKind,
    ibench_profile,
    spark_profile,
)
from tests.helpers import batched_reference


@pytest.fixture(scope="module")
def service(tiny_traces, signatures, feature_config):
    """A small but fully wired Predictor service."""
    ss_data = build_system_state_dataset(tiny_traces, feature_config, stride_s=20.0)
    system_state = SystemStatePredictor(feature_config=feature_config, seed=0)
    system_state.fit(ss_data.windows, ss_data.targets, epochs=25)

    be_data = build_performance_dataset(
        tiny_traces, signatures, WorkloadKind.BEST_EFFORT, feature_config
    )
    be = PerformancePredictor(feature_config=feature_config, seed=1)
    be.fit(
        be_data.state, be_data.signature, be_data.mode,
        system_state.predict(be_data.state), be_data.targets, epochs=70,
    )
    return Predictor(
        system_state=system_state,
        be_performance=be,
        lc_performance=None,
        signatures=signatures,
        feature_config=feature_config,
    )


@pytest.fixture
def history(feature_config, tiny_traces):
    # A real in-distribution window: predictions on synthetic
    # out-of-distribution counter vectors are unconstrained.
    return tiny_traces[-1].window(600.0, feature_config.history_s)


class TestSystemStateAPI:
    def test_predict_system_state_shape(self, service, history):
        s_hat = service.predict_system_state(history)
        assert s_hat.shape == (7,)
        assert np.all(s_hat >= 0)


class TestPerformanceAPI:
    def test_predict_both_modes(self, service, history):
        estimates = service.predict_both_modes(spark_profile("gmm"), history)
        assert set(estimates) == {MemoryMode.LOCAL, MemoryMode.REMOTE}
        assert all(v > 0 for v in estimates.values())

    def test_remote_predicted_slower_for_sensitive_app(self, service, history):
        estimates = service.predict_both_modes(spark_profile("nweight"), history)
        assert estimates[MemoryMode.REMOTE] > estimates[MemoryMode.LOCAL]

    def test_estimates_distinguish_benchmarks(self, service, history):
        """The universal model must separate long from short benchmarks
        via the signature input (gmm nominal 110 s vs scan 35 s)."""
        gmm = service.predict_performance(
            spark_profile("gmm"), history, MemoryMode.LOCAL
        )
        scan = service.predict_performance(
            spark_profile("scan"), history, MemoryMode.LOCAL
        )
        assert gmm > scan

    def test_signature_management(self, service):
        assert service.has_signature(spark_profile("gmm"))
        fake = spark_profile("gmm").with_overrides(name="unknown-app")
        assert not service.has_signature(fake)

    def test_unknown_signature_raises(self, service, history):
        fake = spark_profile("gmm").with_overrides(name="unknown-app")
        with pytest.raises(KeyError):
            service.predict_performance(fake, history, MemoryMode.LOCAL)

    def test_store_signature(self, service, feature_config):
        rows = np.ones((100, feature_config.n_metrics))
        service.store_signature("new-app", rows)
        assert "new-app" in service.signatures
        service.signatures.drop("new-app")

    def test_no_lc_model_raises(self, service, history):
        from repro.workloads import REDIS

        with pytest.raises(RuntimeError):
            service.predict_performance(REDIS, history, MemoryMode.LOCAL)

    def test_interference_has_no_model(self, service, history):
        with pytest.raises(ValueError):
            service.predict_performance(
                ibench_profile("cpu"), history, MemoryMode.LOCAL
            )


class TestFastPath:
    """Batched dual-mode inference and the per-tick Ŝ memo."""

    def _count_system_state(self, service, monkeypatch):
        calls = {"n": 0}
        real = service.system_state.predict

        def counting(window):
            calls["n"] += 1
            return real(window)

        monkeypatch.setattr(service.system_state, "predict", counting)
        return calls

    def test_batched_matches_sequential(self, service, history):
        """Both entry points match the batched (2, T, M) reference."""
        profile = spark_profile("gmm")
        reference = batched_reference(service, profile, history)
        service.invalidate_memo()
        batched = service.predict_both_modes(profile, history)
        assert set(batched) == set(reference)
        for mode, value in reference.items():
            assert batched[mode] == pytest.approx(value, abs=1e-12)
            service.invalidate_memo()  # each call recomputes Ŝ from scratch
            sequential = service.predict_performance(profile, history, mode)
            assert sequential == batched[mode]

    def test_memoized_s_hat_identical_to_fresh(self, service, history):
        service.invalidate_memo()
        fresh = service.predict_system_state(history)
        memoized = service.predict_system_state(history)
        assert np.array_equal(fresh, memoized)
        # Returned arrays are copies: mutating one must not poison the memo.
        memoized[:] = -1.0
        assert np.array_equal(service.predict_system_state(history), fresh)

    def test_one_system_state_forward_per_window(
        self, service, history, monkeypatch
    ):
        calls = self._count_system_state(service, monkeypatch)
        service.invalidate_memo()
        service.predict_both_modes(spark_profile("gmm"), history)
        service.predict_both_modes(spark_profile("scan"), history)
        service.predict_system_state(history)
        assert calls["n"] == 1  # all candidates share the memoized Ŝ

    def test_tick_boundary_invalidates_memo(self, service, history, monkeypatch):
        from repro.cluster import ClusterEngine

        calls = self._count_system_state(service, monkeypatch)
        engine = ClusterEngine()
        service.attach(engine)
        service.attach(engine)  # idempotent
        try:
            service.invalidate_memo()
            service.predict_system_state(history)
            service.predict_system_state(history)
            assert calls["n"] == 1
            engine.tick()
            memoized_then_fresh = service.predict_system_state(history)
            assert calls["n"] == 2  # same content, but the tick moved time on
            assert np.all(memoized_then_fresh >= 0)
        finally:
            service.detach(engine)
        engine.tick()  # detached: no hook left behind
        service.detach(engine)  # safe when already detached

    def test_different_window_misses_memo(self, service, history, monkeypatch):
        calls = self._count_system_state(service, monkeypatch)
        service.invalidate_memo()
        service.predict_system_state(history)
        service.predict_system_state(history + 1.0)
        assert calls["n"] == 2

    def test_obs_counters_match_forward_counts(self, service, history):
        from repro import obs

        profile = spark_profile("gmm")
        service.invalidate_memo()
        try:
            obs.enable()
            service.predict_both_modes(profile, history)
            service.predict_both_modes(profile, history)
            service.predict_system_state(history)
            inferences = obs.metrics().counter(
                "predictor_inferences_total",
                "Predictor forward passes",
                labels=("model",),
            )
            # One true system-state forward, recorded under the nested
            # label (regression: it used to double-count under both the
            # outer timing and "system_state").
            assert inferences.labels(model="system_state_nested").value == 1.0
            assert inferences.labels(model="system_state").value == 0.0
            assert inferences.labels(model="be").value == 2.0
            memo_hits = obs.metrics().counter(
                "predictor_memo_hits_total",
                "Inference-memo hits that skipped recomputation",
                labels=("entry",),
            )
            assert memo_hits.labels(entry="system_state").value == 2.0
            assert memo_hits.labels(entry="window").value == 2.0
        finally:
            obs.disable()


class TestSignatureCache:
    def test_new_rows_under_a_known_name(
        self, service, history, tiny_traces, feature_config, tmp_path
    ):
        """Re-capturing an application replaces its cached encoding."""
        profile = spark_profile("gmm").with_overrides(name="recaptured-app")
        steps = int(feature_config.signature_s / feature_config.dt)
        try:
            service.store_signature(profile.name, tiny_traces[0].metrics[:steps])
            service.predict_both_modes(profile, history)  # caches the first rows
            service.store_signature(profile.name, tiny_traces[1].metrics[:steps])
            estimates = service.predict_both_modes(profile, history)
            service.be_performance.save(tmp_path / "be.npz")
            fresh = Predictor(
                system_state=service.system_state,
                be_performance=PerformancePredictor(
                    feature_config=feature_config
                ).load(tmp_path / "be.npz"),
                signatures=service.signatures,
                feature_config=feature_config,
            )
            assert estimates == fresh.predict_both_modes(profile, history)
        finally:
            service.signatures.drop(profile.name)
