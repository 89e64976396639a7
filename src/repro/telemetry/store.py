"""Bounded metric store for online monitoring.

The real Watcher runs continuously; holding an entire day of samples is
unnecessary because the Predictor only ever consumes the trailing
history window (r = 120 s).  :class:`MetricStore` keeps a fixed-size
ring of the latest samples with O(1) appends and fixed-shape window
reads.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.counters import METRIC_NAMES, as_counter_row

__all__ = ["MetricStore"]


class MetricStore:
    """Ring buffer of perf-counter samples."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data = np.zeros((capacity, len(METRIC_NAMES)))
        self._times = np.zeros(capacity)
        self._size = 0
        self._head = 0  # next write position

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size == self.capacity

    def push(self, time: float, row: np.ndarray) -> None:
        """Copy one counter row into the ring."""
        if self._size > 0 and time <= self.latest_time:
            raise ValueError("samples must arrive in increasing time order")
        self._data[self._head] = as_counter_row(row)
        self._times[self._head] = time
        self._head = (self._head + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    @property
    def latest_time(self) -> float:
        if self._size == 0:
            raise ValueError("store is empty")
        return float(self._times[(self._head - 1) % self.capacity])

    def last(self, n: int) -> np.ndarray:
        """The latest ``n`` samples as an ``(n, n_metrics)`` matrix.

        Zero-pads at the front when fewer than ``n`` samples exist, so
        the Predictor always receives fixed-shape windows (matching the
        zero-padded warm-up behaviour of trace windows).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if n > self.capacity:
            raise ValueError(f"window {n} exceeds store capacity {self.capacity}")
        take = min(n, self._size)
        rows = np.zeros((n, self._data.shape[1]))
        if take:
            # The window is at most two contiguous slices of the ring:
            # [start, min(start+take, capacity)) and the wrapped prefix.
            start = (self._head - take) % self.capacity
            end = start + take
            if end <= self.capacity:
                rows[n - take:] = self._data[start:end]
            else:
                split = self.capacity - start
                rows[n - take : n - take + split] = self._data[start:]
                rows[n - take + split :] = self._data[: end - self.capacity]
        return rows

    def window_mean(self, n: int) -> np.ndarray:
        """Mean of the latest ``n`` samples per metric (no padding)."""
        if self._size == 0:
            raise ValueError("store is empty")
        take = min(n, self._size)
        return self.last(take).mean(axis=0)
