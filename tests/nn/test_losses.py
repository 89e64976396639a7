import numpy as np
import pytest

from repro.nn import MSELoss
from tests.helpers import numeric_grad


class TestMSE:
    def test_known_value(self):
        loss = MSELoss()
        assert loss.forward(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(2.5)

    def test_zero_at_perfect_fit(self):
        loss = MSELoss()
        x = np.arange(4.0)
        assert loss.forward(x, x) == 0.0

    def test_backward_numerically(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(3, 2))
        target = rng.normal(size=(3, 2))
        loss = MSELoss()
        loss.forward(pred, target)
        grad = loss.backward()
        num = numeric_grad(lambda: loss.forward(pred, target), pred, (1, 1))
        assert grad[1, 1] == pytest.approx(num, abs=1e-8)


class TestValidation:
    @pytest.mark.parametrize("loss_cls", [MSELoss])
    def test_shape_mismatch_raises(self, loss_cls):
        with pytest.raises(ValueError):
            loss_cls().forward(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("loss_cls", [MSELoss])
    def test_empty_raises(self, loss_cls):
        with pytest.raises(ValueError):
            loss_cls().forward(np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize("loss_cls", [MSELoss])
    def test_backward_before_forward_raises(self, loss_cls):
        with pytest.raises(RuntimeError):
            loss_cls().backward()
