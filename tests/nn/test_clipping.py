import numpy as np
import pytest

from repro.nn import Parameter, clip_grad_norm


class TestClipNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.zeros(2))
        p.accumulate(np.array([0.3, 0.4]))  # norm 0.5
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(0.5)
        assert np.allclose(p.grad, [0.3, 0.4])

    def test_rescales_to_max_norm(self):
        p = Parameter(np.zeros(2))
        p.accumulate(np.array([3.0, 4.0]))  # norm 5
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)
        assert p.grad[0] / p.grad[1] == pytest.approx(0.75)  # direction kept

    def test_global_norm_across_params(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        a.accumulate(np.array([3.0]))
        b.accumulate(np.array([4.0]))
        clip_grad_norm([a, b], max_norm=2.5)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(2.5)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([Parameter(np.zeros(1))], max_norm=0.0)
