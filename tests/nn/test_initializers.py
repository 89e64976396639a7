import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import initializers


RNG = st.integers(min_value=0, max_value=2**32 - 1)
DIM = st.integers(min_value=1, max_value=20)


class TestXavier:
    @given(seed=RNG, rows=DIM, cols=DIM)
    @settings(max_examples=25, deadline=None)
    def test_uniform_within_limit(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        w = initializers.xavier_uniform((rows, cols), rng)
        limit = np.sqrt(6.0 / (rows + cols))
        assert w.shape == (rows, cols)
        assert np.all(np.abs(w) <= limit)


class TestHe:
    def test_uniform_within_limit(self):
        rng = np.random.default_rng(1)
        w = initializers.he_uniform((64, 32), rng)
        assert np.all(np.abs(w) <= np.sqrt(6.0 / 32))


class TestOrthogonal:
    @given(seed=RNG, rows=DIM, cols=DIM)
    @settings(max_examples=25, deadline=None)
    def test_rows_or_columns_orthonormal(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        w = initializers.orthogonal((rows, cols), rng)
        assert w.shape == (rows, cols)
        if rows <= cols:
            gram = w @ w.T
        else:
            gram = w.T @ w
        assert np.allclose(gram, np.eye(min(rows, cols)), atol=1e-10)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            initializers.orthogonal((3,), np.random.default_rng(0))


class TestMisc:
    def test_empty_shape_raises(self):
        with pytest.raises(ValueError):
            initializers.xavier_uniform((), np.random.default_rng(0))

    def test_1d_fans(self):
        rng = np.random.default_rng(4)
        w = initializers.xavier_uniform((10,), rng)
        assert np.all(np.abs(w) <= np.sqrt(6.0 / 20))
