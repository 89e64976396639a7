"""Weight initialization schemes.

All initializers take an explicit :class:`numpy.random.Generator` so that
model construction is fully reproducible: the Adrias experiments seed
every stochastic component (scenario generation, dataset shuffling and
weight init) independently.
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "he_uniform", "orthogonal"]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("initializer shapes must have at least one axis")
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = int(shape[0])
    return fan_in, fan_out


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot & Bengio (2010) uniform init; default for tanh/sigmoid gates."""
    fan_in, fan_out = _fan_in_out(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He et al. (2015) uniform init; default for ReLU blocks."""
    fan_in, _ = _fan_in_out(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Orthogonal init (Saxe et al., 2014), used for LSTM recurrent weights.

    Orthogonal recurrent matrices keep gradient norms stable over the
    120-step history windows that the Adrias system-state model consumes.
    """
    if len(shape) != 2:
        raise ValueError("orthogonal init requires a 2-D shape")
    rows, cols = shape
    a = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    # Sign correction makes the distribution uniform over orthogonal matrices.
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols].copy()
