"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine transform ``y = x @ W.T + b`` with He-uniform weights.

    Accepts inputs of shape ``(..., in_features)``; leading axes are
    treated as batch dimensions, which lets the same layer project both
    flat feature vectors and per-timestep LSTM outputs.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear features must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            initializers.he_uniform((out_features, in_features), rng), "weight"
        )
        self.bias = Parameter(np.zeros(out_features), "bias")
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected last axis {self.in_features}, got {x.shape[-1]}"
            )
        # Inference mode skips the backward cache so repeated online
        # predictions do not pin the last input batch in memory.
        self._input = None if self.inference else x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input is None:
            if self.inference:
                raise RuntimeError(
                    "Linear.backward called after an inference-mode forward"
                )
            raise RuntimeError("backward called before forward")
        x = self._input
        # Collapse leading axes so the same code handles 2-D and 3-D inputs.
        flat_x = x.reshape(-1, self.in_features)
        flat_g = np.asarray(grad, dtype=np.float64).reshape(-1, self.out_features)
        self.weight.accumulate(flat_g.T @ flat_x)
        self.bias.accumulate(flat_g.sum(axis=0))
        return (flat_g @ self.weight.value).reshape(x.shape)
