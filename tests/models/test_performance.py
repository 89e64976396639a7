import dataclasses

import numpy as np
import pytest

from repro.models import PerformanceModel, PerformancePredictor
from repro.models.dataset import build_performance_dataset
from repro.workloads import WorkloadKind


@pytest.fixture(scope="module")
def be_dataset(tiny_traces, signatures):
    return build_performance_dataset(
        tiny_traces, signatures, WorkloadKind.BEST_EFFORT
    )


class TestModelArchitecture:
    def make_inputs(self, n=4, t_s=12, t_k=6, m=7, seed=0):
        rng = np.random.default_rng(seed)
        return (
            rng.normal(size=(n, t_s, m)),
            rng.normal(size=(n, t_k, m)),
            rng.integers(0, 2, size=(n, 1)).astype(float),
            rng.normal(size=(n, m)),
        )

    def test_forward_shape_with_future(self):
        model = PerformanceModel(lstm_hidden=8, block_hidden=16)
        s, k, mode, f = self.make_inputs()
        assert model.forward(s, k, mode, f).shape == (4, 1)

    def test_forward_without_future(self):
        model = PerformanceModel(lstm_hidden=8, block_hidden=16, use_future=False)
        s, k, mode, _ = self.make_inputs()
        assert model.forward(s, k, mode).shape == (4, 1)

    def test_future_requirement_enforced(self):
        s, k, mode, f = self.make_inputs()
        with_future = PerformanceModel(use_future=True)
        without = PerformanceModel(use_future=False)
        with pytest.raises(ValueError):
            with_future.forward(s, k, mode, None)
        with pytest.raises(ValueError):
            without.forward(s, k, mode, f)

    def test_mode_shape_enforced(self):
        model = PerformanceModel()
        s, k, _, f = self.make_inputs()
        with pytest.raises(ValueError):
            model.forward(s, k, np.zeros(4), f)

    def test_backward_reaches_both_encoders(self):
        model = PerformanceModel(lstm_hidden=8, block_hidden=16)
        s, k, mode, f = self.make_inputs()
        out = model.forward(s, k, mode, f)
        model.zero_grad()
        model.backward(np.ones_like(out))
        state_grads = [np.abs(p.grad).sum() for p in model.state_encoder.parameters()]
        sig_grads = [np.abs(p.grad).sum() for p in model.signature_encoder.parameters()]
        assert sum(state_grads) > 0
        assert sum(sig_grads) > 0

    def test_two_lstm_encoders(self):
        from repro.nn import LSTM

        model = PerformanceModel(lstm_layers=2)
        lstms = [m for m in model.modules() if isinstance(m, LSTM)]
        assert len(lstms) == 4  # 2 layers x 2 encoders


class TestPredictor:
    @pytest.fixture(scope="class")
    def fitted(self, be_dataset):
        predictor = PerformancePredictor(seed=0)
        predictor.fit(
            be_dataset.state,
            be_dataset.signature,
            be_dataset.mode,
            be_dataset.future_120,
            be_dataset.targets,
            epochs=50,
        )
        return predictor

    def test_predictions_positive(self, fitted, be_dataset):
        pred = fitted.predict(
            be_dataset.state, be_dataset.signature, be_dataset.mode,
            be_dataset.future_120,
        )
        assert pred.shape == (len(be_dataset),)
        assert np.all(pred > 0)

    def test_single_sample_prediction(self, fitted, be_dataset):
        single = fitted.predict(
            be_dataset.state[0], be_dataset.signature[0],
            np.array([be_dataset.mode[0]]), be_dataset.future_120[0],
        )
        assert isinstance(single, float)
        assert single > 0

    def test_train_set_fit_quality(self, fitted, be_dataset):
        metrics = fitted.evaluate(
            be_dataset.state, be_dataset.signature, be_dataset.mode,
            be_dataset.future_120, be_dataset.targets,
        )
        assert metrics["r2"] > 0.5
        assert "r2_local" in metrics and "r2_remote" in metrics

    def test_predict_before_fit_raises(self, be_dataset):
        predictor = PerformancePredictor()
        with pytest.raises(RuntimeError):
            predictor.predict(
                be_dataset.state[:1], be_dataset.signature[:1],
                be_dataset.mode[:1], be_dataset.future_120[:1],
            )

    def test_fit_validation(self, be_dataset):
        predictor = PerformancePredictor(use_future=True)
        with pytest.raises(ValueError):
            predictor.fit(
                be_dataset.state, be_dataset.signature, be_dataset.mode,
                None, be_dataset.targets, epochs=1,
            )
        no_future = PerformancePredictor(use_future=False)
        with pytest.raises(ValueError):
            no_future.fit(
                be_dataset.state, be_dataset.signature, be_dataset.mode,
                be_dataset.future_120, be_dataset.targets, epochs=1,
            )

    def test_nonpositive_targets_rejected(self, be_dataset):
        predictor = PerformancePredictor()
        bad = np.zeros_like(be_dataset.targets)
        with pytest.raises(ValueError):
            predictor.fit(
                be_dataset.state, be_dataset.signature, be_dataset.mode,
                be_dataset.future_120, bad, epochs=1,
            )


class TestSignatureEncodingCache:
    """Single-window predictions reuse each signature's encoding; the
    cache must not outlive the weights that produced it."""

    FLAGS = np.array([0.0, 1.0])

    def fitted(self, data, seed=0):
        predictor = PerformancePredictor(lstm_hidden=8, block_hidden=16, seed=seed)
        return self.refit(predictor, data)

    def refit(self, predictor, data):
        predictor.fit(
            data.state, data.signature, data.mode, data.future_120,
            data.targets, epochs=2,
        )
        return predictor

    def estimate(self, predictor, data, row=0):
        return predictor.predict(
            data.state[row], data.signature[row], self.FLAGS,
            data.future_120[row],
        )

    def test_encoder_runs_once_per_distinct_signature(
        self, be_dataset, monkeypatch
    ):
        predictor = self.fitted(be_dataset)
        encoder = predictor.model.signature_encoder
        real, calls = encoder.forward, []
        monkeypatch.setattr(
            encoder, "forward", lambda k: calls.append(len(k)) or real(k)
        )
        names = list(dict.fromkeys(be_dataset.names))[:2]
        for name in names:
            signature = be_dataset.signature[be_dataset.names.index(name)]
            for row in range(3):
                predictor.predict(
                    be_dataset.state[row], signature, self.FLAGS,
                    be_dataset.future_120[row],
                )
        assert calls == [1] * len(names)

    def test_refit_clears_cache(self, be_dataset):
        # Other targets on the same inputs: the metric scaler, and so
        # every cache key, stays the same while the weights change.
        other = dataclasses.replace(be_dataset, targets=be_dataset.targets[::-1])
        warm = self.fitted(be_dataset)
        self.estimate(warm, be_dataset)  # encodes with the first fit's weights
        self.refit(warm, other)
        cold = self.refit(self.fitted(be_dataset), other)
        assert np.array_equal(
            self.estimate(warm, be_dataset), self.estimate(cold, be_dataset)
        )

    def test_load_clears_cache(self, be_dataset, tmp_path):
        other = self.fitted(be_dataset, seed=1)
        other.save(tmp_path / "other.npz")
        warm = self.fitted(be_dataset, seed=0)
        self.estimate(warm, be_dataset)
        warm.load(tmp_path / "other.npz")
        assert np.array_equal(
            self.estimate(warm, be_dataset), self.estimate(other, be_dataset)
        )
