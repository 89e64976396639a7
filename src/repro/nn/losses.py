"""The regression loss.

The loss exposes ``forward(pred, target) -> float`` and
``backward() -> dL/dpred``; it plugs into the same explicit-backward
pipeline as the layers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MSELoss"]


class MSELoss:
    """Mean squared error — the training loss for both Adrias models."""

    def __init__(self) -> None:
        self._diff: np.ndarray | None = None

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        pred = np.asarray(pred, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if pred.shape != target.shape:
            raise ValueError(
                f"prediction shape {pred.shape} != target shape {target.shape}"
            )
        if pred.size == 0:
            raise ValueError("loss of empty arrays is undefined")
        self._diff = pred - target
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._diff / self._diff.size
