"""The ReLU layer and the stable logistic function of the recurrent gates."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["ReLU", "sigmoid"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function, branch-free.

    ``exp(-|x|)`` cannot overflow on the large pre-activations LSTM gates
    produce early in training, and for each sign of ``x`` the result is
    the sign-split form, ``1 / (1 + exp(-x))`` or ``exp(x) / (1 + exp(x))``.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class ReLU(Module):
    """Rectified linear unit, the non-linearity of Adrias' dense blocks."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad, 0.0)
