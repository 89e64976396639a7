import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import METRIC_NAMES
from repro.telemetry import MetricStore


def sample(value: float) -> np.ndarray:
    return np.full(len(METRIC_NAMES), value)


class TestPush:
    def test_size_grows_until_capacity(self):
        store = MetricStore(capacity=3)
        for i in range(5):
            store.push(float(i), sample(i))
        assert len(store) == 3
        assert store.full

    def test_time_ordering_enforced(self):
        store = MetricStore()
        store.push(1.0, sample(1))
        with pytest.raises(ValueError):
            store.push(1.0, sample(2))

    def test_latest_time(self):
        store = MetricStore()
        store.push(1.0, sample(1))
        store.push(2.5, sample(2))
        assert store.latest_time == 2.5

    def test_latest_time_empty_raises(self):
        with pytest.raises(ValueError):
            MetricStore().latest_time

    def test_push_copies_the_row(self):
        store = MetricStore(capacity=4)
        row = sample(1.0)
        store.push(1.0, row)
        row[:] = 9.0
        assert np.array_equal(store.last(1)[0], sample(1.0))

    @pytest.mark.parametrize("shape", [(), (1,), (len(METRIC_NAMES) - 1,),
                                       (1, len(METRIC_NAMES))])
    def test_wrong_row_shape_raises(self, shape):
        # A scalar or a length-1 row would otherwise broadcast into the ring.
        store = MetricStore(capacity=4)
        with pytest.raises(ValueError):
            store.push(1.0, np.ones(shape))
        assert len(store) == 0


class TestLast:
    def test_returns_most_recent_in_order(self):
        store = MetricStore(capacity=10)
        for i in range(6):
            store.push(float(i), sample(i))
        window = store.last(3)
        assert np.allclose(window[:, 0], [3, 4, 5])

    def test_wraparound_preserves_order(self):
        store = MetricStore(capacity=4)
        for i in range(10):
            store.push(float(i), sample(i))
        window = store.last(4)
        assert np.allclose(window[:, 0], [6, 7, 8, 9])

    def test_zero_pads_when_underfilled(self):
        store = MetricStore(capacity=10)
        store.push(0.0 + 1, sample(7))
        window = store.last(4)
        assert np.allclose(window[:3, 0], 0.0)
        assert window[3, 0] == 7

    def test_window_larger_than_capacity_raises(self):
        with pytest.raises(ValueError):
            MetricStore(capacity=4).last(5)

    def test_nonpositive_window_raises(self):
        with pytest.raises(ValueError):
            MetricStore().last(0)

    @given(
        capacity=st.integers(min_value=1, max_value=20),
        pushes=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=30, deadline=None)
    def test_last_always_matches_tail_of_pushed_sequence(self, capacity, pushes):
        store = MetricStore(capacity=capacity)
        for i in range(pushes):
            store.push(float(i + 1), sample(i))
        n = min(capacity, max(1, pushes))
        window = store.last(n)
        expected = np.arange(max(0, pushes - n), pushes, dtype=float)
        got = window[n - len(expected):, 0] if len(expected) else window[:0, 0]
        assert np.allclose(got, expected)

    @staticmethod
    def _last_reference(store: MetricStore, n: int) -> np.ndarray:
        """The pre-vectorization per-row copy loop, kept as the oracle."""
        take = min(n, len(store))
        rows = np.zeros((n, store._data.shape[1]))
        for offset in range(take):
            src = (store._head - take + offset) % store.capacity
            rows[n - take + offset] = store._data[src]
        return rows

    @given(
        capacity=st.integers(min_value=1, max_value=16),
        pushes=st.integers(min_value=0, max_value=48),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorized_last_matches_reference_loop(self, capacity, pushes, data):
        store = MetricStore(capacity=capacity)
        for i in range(pushes):
            store.push(float(i + 1), sample(i * 1.5 - 3.0))
        n = data.draw(st.integers(min_value=1, max_value=capacity))
        assert np.array_equal(store.last(n), self._last_reference(store, n))

    def test_vectorized_last_matches_reference_across_wrap_boundary(self):
        # Exercise both the contiguous and the two-slice wrapped path.
        store = MetricStore(capacity=5)
        for i in range(8):  # head has wrapped: window straddles the seam
            store.push(float(i + 1), sample(10 * i))
        for n in range(1, 6):
            assert np.array_equal(store.last(n), self._last_reference(store, n))


class TestWindowMean:
    def test_mean_over_last_n(self):
        store = MetricStore()
        for i in range(4):
            store.push(float(i + 1), sample(i))
        assert store.window_mean(2)[0] == pytest.approx(2.5)

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            MetricStore().window_mean(3)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MetricStore(capacity=0)
