"""Shared test utilities: gradient checking and trace comparison."""

from __future__ import annotations

import numpy as np

from repro.nn.losses import MSELoss
from repro.nn.module import Module


def assert_traces_identical(a, b) -> None:
    """Bit-exact equality of two engine traces (NaN compares equal)."""
    import dataclasses

    assert a.times == b.times
    assert a.concurrency == b.concurrency
    ma, mb = a.metrics, b.metrics
    assert ma.shape == mb.shape
    same = (ma == mb) | (np.isnan(ma) & np.isnan(mb))
    assert same.all(), f"counter rows {np.flatnonzero(~same.all(axis=1))} differ"
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        fa, fb = dataclasses.asdict(ra), dataclasses.asdict(rb)
        assert fa.keys() == fb.keys()
        for key in fa:
            va, vb = fa[key], fb[key]
            same = va == vb or (va != va and vb != vb)  # NaN == NaN
            assert same, f"record {ra.app_id} field {key}: {va!r} != {vb!r}"


def sigmoid_sign_split(x: np.ndarray) -> np.ndarray:
    """Reference logistic: one masked evaluation per sign of ``x``."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def batched_reference(service, profile, history: np.ndarray) -> dict:
    """Both modes' estimates for a BE ``profile`` from the batched
    (2, T, M) forward: both encoders run on the stacked window and
    signature, and no encoding is cached."""
    from repro.models.features import encode_mode, impute_gaps, subsample
    from repro.workloads import MemoryMode

    config = service.config
    window = subsample(impute_gaps(history)[0], config.sample_period_s, config.dt)
    s_hat = service.predict_system_state(history)
    signature = service.signatures.get(profile.name)
    modes = (MemoryMode.LOCAL, MemoryMode.REMOTE)
    estimates = service.be_performance.predict(
        np.stack([window, window]),
        np.stack([signature, signature]),
        np.array([[encode_mode(m)] for m in modes]),
        np.stack([s_hat, s_hat]),
    )
    return dict(zip(modes, estimates))


def numeric_grad(f, array: np.ndarray, index: tuple, eps: float = 1e-6) -> float:
    """Central-difference derivative of scalar ``f()`` w.r.t. one element."""
    old = array[index]
    array[index] = old + eps
    up = f()
    array[index] = old - eps
    down = f()
    array[index] = old
    return (up - down) / (2 * eps)


def check_param_grads(
    module: Module,
    inputs: tuple[np.ndarray, ...],
    target: np.ndarray,
    n_checks: int = 5,
    tol: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> None:
    """Verify analytic parameter gradients against central differences.

    Runs the module in eval-free deterministic mode is the caller's
    responsibility (disable dropout by calling ``module.eval()`` and
    re-enabling training-mode layers is NOT done here — pass modules
    without stochastic layers, or set dropout p=0).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    loss = MSELoss()

    def forward_loss() -> float:
        return loss.forward(module.forward(*inputs), target)

    module.zero_grad()
    value = forward_loss()
    assert np.isfinite(value)
    module.backward(loss.backward())

    for param in module.parameters():
        flat = param.value.reshape(-1)
        flat_grad = param.grad.reshape(-1)
        indices = rng.choice(flat.size, size=min(n_checks, flat.size), replace=False)
        for idx in indices:
            num = numeric_grad(forward_loss, flat, (idx,))
            ana = flat_grad[idx]
            assert abs(num - ana) <= tol * max(1.0, abs(num), abs(ana)), (
                f"gradient mismatch for {param.name}[{idx}]: "
                f"analytic {ana}, numeric {num}"
            )


def check_input_grad(
    module: Module,
    x: np.ndarray,
    target: np.ndarray,
    n_checks: int = 5,
    tol: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> None:
    """Verify the returned input gradient against central differences."""
    rng = rng if rng is not None else np.random.default_rng(0)
    loss = MSELoss()

    def forward_loss() -> float:
        return loss.forward(module.forward(x), target)

    module.zero_grad()
    forward_loss()
    dx = module.backward(loss.backward())
    assert dx.shape == x.shape

    flat_x = x.reshape(-1)
    flat_dx = dx.reshape(-1)
    indices = rng.choice(flat_x.size, size=min(n_checks, flat_x.size), replace=False)
    for idx in indices:
        num = numeric_grad(forward_loss, flat_x, (idx,))
        ana = flat_dx[idx]
        assert abs(num - ana) <= tol * max(1.0, abs(num), abs(ana)), (
            f"input-gradient mismatch at {idx}: analytic {ana}, numeric {num}"
        )
