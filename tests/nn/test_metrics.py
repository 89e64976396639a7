import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import mae, pearson, r2_score


SAMPLES = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=3, max_size=50,
).map(np.array)


class TestR2:
    def test_perfect_fit_is_one(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0

    def test_mean_predictor_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_worse_than_mean_is_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.array([3.0, 1.0, -2.0])) < 0

    def test_constant_target_convention(self):
        y = np.full(4, 5.0)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 1) == 0.0

    @given(y=SAMPLES)
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_one(self, y):
        rng = np.random.default_rng(0)
        pred = y + rng.normal(size=y.shape)
        assert r2_score(y, pred) <= 1.0


class TestErrors:
    def test_mae_known(self):
        assert mae([0.0, 0.0], [1.0, -3.0]) == pytest.approx(2.0)


class TestPearson:
    def test_perfect_linear(self):
        x = np.arange(10.0)
        assert pearson(x, 3 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -2 * x) == pytest.approx(-1.0)

    def test_constant_series_returns_zero(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0

    @given(x=SAMPLES)
    @settings(max_examples=30, deadline=None)
    def test_bounded_and_symmetric(self, x):
        rng = np.random.default_rng(2)
        y = rng.normal(size=x.shape)
        r = pearson(x, y)
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9
        assert r == pytest.approx(pearson(y, x))

    def test_shift_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert pearson(x, y) == pytest.approx(pearson(2 * x + 5, y))


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            r2_score(np.zeros(3), np.zeros(4))

    def test_empty(self):
        with pytest.raises(ValueError):
            mae(np.zeros(0), np.zeros(0))
