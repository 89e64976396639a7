import numpy as np
import pytest

from repro.nn import Linear, initializers
from tests.helpers import check_input_grad, check_param_grads


class TestForward:
    def test_matches_manual_affine(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.value.T + layer.bias.value
        assert np.allclose(layer.forward(x), expected)

    def test_he_uniform_weights_and_zero_bias(self):
        layer = Linear(3, 2, rng=np.random.default_rng(1))
        expected = initializers.he_uniform((2, 3), np.random.default_rng(1))
        assert np.array_equal(layer.weight.value, expected)
        assert np.array_equal(layer.bias.value, np.zeros(2))

    def test_3d_input_broadcasts_over_time(self):
        rng = np.random.default_rng(2)
        layer = Linear(5, 3, rng=rng)
        x = rng.normal(size=(2, 7, 5))
        out = layer.forward(x)
        assert out.shape == (2, 7, 3)
        assert np.allclose(out[1, 3], layer.forward(x[1, 3:4])[0])

    def test_wrong_feature_dim_raises(self):
        layer = Linear(3, 2)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((4, 5)))

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            Linear(0, 2)
        with pytest.raises(ValueError):
            Linear(2, -1)


class TestBackward:
    def test_param_grads_numerically(self):
        rng = np.random.default_rng(3)
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(5, 3))
        check_param_grads(layer, (x,), y)

    def test_input_grad_numerically(self):
        rng = np.random.default_rng(4)
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(5, 3))
        check_input_grad(layer, x, y)

    def test_3d_param_grads_numerically(self):
        rng = np.random.default_rng(5)
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(2, 4, 3))
        y = rng.normal(size=(2, 4, 2))
        check_param_grads(layer, (x,), y)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Linear(2, 2).backward(np.zeros((1, 2)))

    def test_grads_accumulate_across_calls(self):
        rng = np.random.default_rng(6)
        layer = Linear(2, 2, rng=rng)
        x = rng.normal(size=(3, 2))
        layer.forward(x)
        layer.backward(np.ones((3, 2)))
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(np.ones((3, 2)))
        assert np.allclose(layer.weight.grad, 2 * first)
