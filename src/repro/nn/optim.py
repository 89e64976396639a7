"""The Adam optimizer, operating on :class:`Parameter` objects."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba, 2015) — the optimizer used to train both models.

    Adam is checkpointable: :meth:`state_dict` captures the LR, the step
    count and both moment buffers of every parameter, so a training run
    restored from a checkpoint continues bit-identically.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        self._t += 1
        for param, m, v in zip(self.params, self._m, self._v):
            grad = param.grad
            m[...] = self.beta1 * m + (1 - self.beta1) * grad
            v[...] = self.beta2 * v + (1 - self.beta2) * grad**2
            m_hat = m / (1 - self.beta1**self._t)
            v_hat = v / (1 - self.beta2**self._t)
            param.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """Copies of the LR, the step count and the moment buffers."""
        return {
            "lr": self.lr,
            "extra": {"t": self._t},
            "slots": {
                "m": [a.copy() for a in self._m],
                "v": [a.copy() for a in self._v],
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; slot shapes must match."""
        slots = state.get("slots", {})
        own = {"m": self._m, "v": self._v}
        if set(slots) != set(own):
            raise ValueError(
                f"optimizer slot mismatch: saved {sorted(slots)}, "
                f"expected {sorted(own)}"
            )
        for name, arrays in slots.items():
            targets = own[name]
            if len(arrays) != len(targets):
                raise ValueError(
                    f"slot {name!r} holds {len(arrays)} arrays, "
                    f"optimizer has {len(targets)} parameters"
                )
            for target, value in zip(targets, arrays):
                value = np.asarray(value, dtype=np.float64)
                if target.shape != value.shape:
                    raise ValueError(
                        f"slot {name!r} shape mismatch: "
                        f"{target.shape} vs {value.shape}"
                    )
                target[...] = value
        self.lr = float(state["lr"])
        self._t = int(state["extra"]["t"])
