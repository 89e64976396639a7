"""Gradient-norm clipping for stable BPTT over long windows."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["clip_grad_norm"]


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Rescale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip global norm (useful for divergence diagnostics).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    params = list(params)
    total_sq = sum(float(np.sum(p.grad**2)) for p in params)
    total_norm = float(np.sqrt(total_sq))
    if total_norm > max_norm and total_norm > 0:
        scale = max_norm / total_norm
        for param in params:
            param.grad *= scale
    return total_norm
