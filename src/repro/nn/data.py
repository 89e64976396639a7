"""Dataset containers, batching and feature scaling."""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["TensorDataset", "DataLoader", "StandardScaler"]


class TensorDataset:
    """Tuple of aligned arrays; item ``i`` is the i-th row of each array.

    The Adrias performance model consumes four aligned inputs
    (S, signature, mode, Ŝ) plus a target, so datasets are tuples rather
    than single matrices.
    """

    def __init__(self, *arrays: np.ndarray) -> None:
        if not arrays:
            raise ValueError("TensorDataset requires at least one array")
        arrays = tuple(np.asarray(a) for a in arrays)
        length = arrays[0].shape[0]
        for a in arrays:
            if a.shape[0] != length:
                raise ValueError(
                    "all arrays must share the first dimension: "
                    f"{[a.shape[0] for a in arrays]}"
                )
        self.arrays = arrays

    def __len__(self) -> int:
        return self.arrays[0].shape[0]

    def __getitem__(self, index) -> tuple[np.ndarray, ...]:
        return tuple(a[index] for a in self.arrays)


class DataLoader:
    """Mini-batch iterator with optional shuffling.

    Shuffling uses an explicit generator so training runs are exactly
    reproducible; each epoch draws a fresh permutation.
    """

    def __init__(
        self,
        dataset: TensorDataset,
        batch_size: int = 32,
        shuffle: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            yield self.dataset[order[start : start + self.batch_size]]


class StandardScaler:
    """Per-feature zero-mean unit-variance scaling.

    Works on the trailing feature axis, so it handles both ``(N, F)``
    tabular data and ``(N, T, F)`` metric time-series windows.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        x = np.asarray(x, dtype=np.float64)
        axes = tuple(range(x.ndim - 1))
        self.mean_ = x.mean(axis=axes)
        std = x.std(axis=axes)
        # Constant features scale by 1 so transform is a pure shift.
        self.scale_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler must be fit before transform")
        return (np.asarray(x, dtype=np.float64) - self.mean_) / self.scale_

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler must be fit before inverse_transform")
        return np.asarray(x, dtype=np.float64) * self.scale_ + self.mean_
