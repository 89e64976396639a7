import numpy as np
import pytest

from repro.nn import BatchNorm1d
from tests.helpers import check_input_grad, check_param_grads


class TestBatchNormForward:
    def test_training_normalizes_batch(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm1d(4)
        x = rng.normal(loc=5.0, scale=3.0, size=(64, 4))
        out = bn.forward(x)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-8)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_converge(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm1d(2, momentum=0.5)
        for _ in range(50):
            bn.forward(rng.normal(loc=2.0, scale=1.5, size=(128, 2)))
        assert np.allclose(bn.running_mean, 2.0, atol=0.3)
        assert np.allclose(np.sqrt(bn.running_var), 1.5, atol=0.3)

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm1d(3)
        for _ in range(20):
            bn.forward(rng.normal(size=(64, 3)))
        bn.eval()
        x = rng.normal(size=(1, 3))
        out1 = bn.forward(x)
        out2 = bn.forward(x)
        assert np.allclose(out1, out2)  # deterministic single-sample inference

    def test_single_sample_training_falls_back(self):
        bn = BatchNorm1d(3)
        out = bn.forward(np.ones((1, 3)))
        assert np.all(np.isfinite(out))

    def test_shape_validation(self):
        bn = BatchNorm1d(3)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            bn.forward(np.zeros((2, 3, 1)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BatchNorm1d(0)
        with pytest.raises(ValueError):
            BatchNorm1d(3, momentum=0.0)

    def test_state_dict_includes_running_buffers(self):
        bn = BatchNorm1d(3)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state
        bn2 = BatchNorm1d(3)
        bn.forward(np.random.default_rng(9).normal(size=(16, 3)))
        bn2.load_state_dict(bn.state_dict())
        assert np.allclose(bn2.running_mean, bn.running_mean)


class TestBatchNormBackward:
    def test_param_grads_numerically(self):
        rng = np.random.default_rng(3)
        bn = BatchNorm1d(3)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 3))
        check_param_grads(bn, (x,), y, tol=1e-4)

    def test_input_grad_numerically(self):
        rng = np.random.default_rng(4)
        bn = BatchNorm1d(3)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 3))
        check_input_grad(bn, x, y, tol=1e-4)

    def test_eval_mode_input_grad(self):
        rng = np.random.default_rng(5)
        bn = BatchNorm1d(3)
        bn.forward(rng.normal(size=(32, 3)))  # populate running stats
        bn.eval()
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))
        check_input_grad(bn, x, y, tol=1e-4)
