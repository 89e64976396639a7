"""Element-wise activation layers and their stable functional forms."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["ReLU", "LeakyReLU", "Tanh", "Sigmoid", "Identity", "sigmoid", "tanh"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function, branch-free.

    ``exp(-|x|)`` cannot overflow on the large pre-activations LSTM gates
    produce early in training, and for each sign of ``x`` the result is
    the sign-split form, ``1 / (1 + exp(-x))`` or ``exp(x) / (1 + exp(x))``.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


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


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        if negative_slope < 0:
            raise ValueError("negative_slope must be >= 0")
        self.negative_slope = negative_slope
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad, self.negative_slope * grad)


class Tanh(Module):
    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad * (1.0 - self._output**2)


class Sigmoid(Module):
    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = sigmoid(np.asarray(x, dtype=np.float64))
        return self._output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad * self._output * (1.0 - self._output)


class Identity(Module):
    """No-op layer; useful as a placeholder in configurable blocks."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad
