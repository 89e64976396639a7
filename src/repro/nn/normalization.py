"""Batch normalization.

Adrias' non-linear blocks combine "fully-connected layers with ReLU
activation functions, batch normalization and dropout layers" (§V-B2);
this module provides the batch-norm piece with running statistics for
inference-time use.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["BatchNorm1d"]


class BatchNorm1d(Module):
    """Normalize each feature over the batch axis.

    Accepts ``(N, F)`` inputs.  In training mode, statistics come from
    the batch and running estimates are updated with ``momentum``; in
    eval mode the running estimates are used, so single-sample online
    predictions (the Orchestrator path) are deterministic.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features), "gamma")
        self.beta = Parameter(np.zeros(num_features), "beta")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expected (N, {self.num_features}), got {x.shape}"
            )
        if self.training:
            if x.shape[0] < 2:
                # A single sample has zero variance; fall back to running
                # stats so online fine-tuning does not divide by ~eps.
                mean, var = self.running_mean, self.running_var
                x_hat = (x - mean) / np.sqrt(var + self.eps)
                self._cache = (x_hat, np.sqrt(var + self.eps), False)
            else:
                mean = x.mean(axis=0)
                var = x.var(axis=0)
                std = np.sqrt(var + self.eps)
                x_hat = (x - mean) / std
                self._cache = (x_hat, std, True)
                self.running_mean[...] = (
                    (1 - self.momentum) * self.running_mean + self.momentum * mean
                )
                # Unbiased variance for the running estimate, as in PyTorch.
                n = x.shape[0]
                self.running_var[...] = (
                    (1 - self.momentum) * self.running_var
                    + self.momentum * var * n / (n - 1)
                )
        else:
            std = np.sqrt(self.running_var + self.eps)
            x_hat = (x - self.running_mean) / std
            self._cache = (x_hat, std, False)
        return self.gamma.value * x_hat + self.beta.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, std, batch_stats = self._cache
        n = grad.shape[0]
        self.gamma.accumulate((grad * x_hat).sum(axis=0))
        self.beta.accumulate(grad.sum(axis=0))
        dx_hat = grad * self.gamma.value
        if not batch_stats:
            # Statistics were constants w.r.t. the input.
            return dx_hat / std
        return (
            dx_hat - dx_hat.mean(axis=0) - x_hat * (dx_hat * x_hat).mean(axis=0)
        ) / std
