"""LSTM layers with full backpropagation through time.

The Adrias predictor uses stacked LSTMs as the backbone of both the
system-state and the performance models (§V-B2, Fig. 11).  This module
implements a batched LSTM over ``(N, T, D)`` inputs with exact BPTT —
gradients are verified against numerical differentiation in
``tests/nn/test_recurrent.py``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.activations import sigmoid
from repro.nn.module import Module, Sequential
from repro.nn.parameter import Parameter

__all__ = ["LSTM", "StackedLSTM"]


class LSTM(Module):
    """Single LSTM layer.

    Parameters
    ----------
    input_size:
        Feature dimension ``D`` of the input sequence.
    hidden_size:
        Dimension ``H`` of hidden and cell states.
    return_sequences:
        If True the layer outputs the full hidden sequence ``(N, T, H)``;
        otherwise only the last hidden state ``(N, H)``.  Intermediate
        layers of a stack return sequences, the last one typically does
        not.
    rng:
        Generator for weight init (xavier for input weights, orthogonal
        for recurrent weights — the standard recipe for stable BPTT).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        return_sequences: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("LSTM sizes must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.return_sequences = return_sequences

        h = hidden_size
        w_x = initializers.xavier_uniform((4 * h, input_size), rng)
        w_h = np.concatenate(
            [initializers.orthogonal((h, h), rng) for _ in range(4)], axis=0
        )
        bias = np.zeros(4 * h)
        # Forget-gate bias of 1.0 (Jozefowicz et al., 2015) so early
        # training does not erase state over 120-step windows.
        bias[h : 2 * h] = 1.0
        self.w_x = Parameter(w_x, "w_x")
        self.w_h = Parameter(w_h, "w_h")
        self.bias = Parameter(bias, "bias")
        self._cache: dict | None = None
        self._inference_forward = False

    # Gate slices into the packed (4H, ·) weight layout: i, f, g, o.
    def _slices(self) -> tuple[slice, slice, slice, slice]:
        h = self.hidden_size
        return (
            slice(0, h),
            slice(h, 2 * h),
            slice(2 * h, 3 * h),
            slice(3 * h, 4 * h),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(
                f"LSTM expected (N, T, {self.input_size}), got {x.shape}"
            )
        if self.inference:
            return self._forward_inference(x)
        self._inference_forward = False
        n, t, _ = x.shape
        h_dim = self.hidden_size
        s_i, s_f, s_g, s_o = self._slices()

        h_prev = np.zeros((n, h_dim))
        c_prev = np.zeros((n, h_dim))
        gates_i = np.empty((t, n, h_dim))
        gates_f = np.empty((t, n, h_dim))
        gates_g = np.empty((t, n, h_dim))
        gates_o = np.empty((t, n, h_dim))
        cells = np.empty((t, n, h_dim))
        cell_tanh = np.empty((t, n, h_dim))
        hiddens = np.empty((t, n, h_dim))
        h_prevs = np.empty((t, n, h_dim))
        c_prevs = np.empty((t, n, h_dim))

        w_x_t = self.w_x.value.T
        w_h_t = self.w_h.value.T
        for step in range(t):
            h_prevs[step] = h_prev
            c_prevs[step] = c_prev
            z = x[:, step, :] @ w_x_t + h_prev @ w_h_t + self.bias.value
            act = sigmoid(z)  # all four gates in one call; g's share goes unused
            i_g, f_g, o_g = act[:, s_i], act[:, s_f], act[:, s_o]
            g_g = np.tanh(z[:, s_g])
            c_prev = f_g * c_prev + i_g * g_g
            ct = np.tanh(c_prev)
            h_prev = o_g * ct
            gates_i[step], gates_f[step] = i_g, f_g
            gates_g[step], gates_o[step] = g_g, o_g
            cells[step], cell_tanh[step], hiddens[step] = c_prev, ct, h_prev

        self._cache = {
            "x": x,
            "i": gates_i,
            "f": gates_f,
            "g": gates_g,
            "o": gates_o,
            "c": cells,
            "ct": cell_tanh,
            "h": hiddens,
            "h_prev": h_prevs,
            "c_prev": c_prevs,
        }
        if self.return_sequences:
            return hiddens.transpose(1, 0, 2)
        return hiddens[-1]

    def _forward_inference(self, x: np.ndarray) -> np.ndarray:
        """Cache-free forward for inference mode.

        Two wins over the training forward: the input projection
        ``x @ W_x.T`` for *all* timesteps runs as one GEMM outside the
        recurrence, and none of the ten per-timestep BPTT tensors is
        allocated — the loop carries only the (N, H) hidden/cell state.
        The per-step summation order matches the training path
        (``xW + hW + b``), but the one GEMM blocks its dot products
        differently: outputs agree to rounding, not bit for bit.
        """
        n, t, _ = x.shape
        h_dim = self.hidden_size
        s_i, s_f, s_g, s_o = self._slices()

        z_x = (x.reshape(n * t, self.input_size) @ self.w_x.value.T)
        z_x = z_x.reshape(n, t, 4 * h_dim)
        w_h_t = self.w_h.value.T
        bias = self.bias.value
        h_prev = np.zeros((n, h_dim))
        c_prev = np.zeros((n, h_dim))
        hiddens = np.empty((n, t, h_dim)) if self.return_sequences else None
        for step in range(t):
            z = z_x[:, step, :] + h_prev @ w_h_t + bias
            act = sigmoid(z)
            i_g, f_g, o_g = act[:, s_i], act[:, s_f], act[:, s_o]
            g_g = np.tanh(z[:, s_g])
            c_prev = f_g * c_prev + i_g * g_g
            h_prev = o_g * np.tanh(c_prev)
            if hiddens is not None:
                hiddens[:, step, :] = h_prev
        # Release any cache pinned by a previous training forward so a
        # shared model does not hold O(T·N·H) memory between calls.
        self._cache = None
        self._inference_forward = True
        return hiddens if hiddens is not None else h_prev

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            if self._inference_forward:
                raise RuntimeError(
                    "LSTM.backward called after an inference-mode forward; "
                    "switch the module back with train() and re-run forward "
                    "to build the BPTT cache"
                )
            raise RuntimeError("backward called before forward")
        cache = self._cache
        x = cache["x"]
        n, t, _ = x.shape
        h_dim = self.hidden_size

        if self.return_sequences:
            grad_h_seq = np.asarray(grad, dtype=np.float64).transpose(1, 0, 2)
        else:
            grad_h_seq = np.zeros((t, n, h_dim))
            grad_h_seq[-1] = grad

        dw_x = np.zeros_like(self.w_x.value)
        dw_h = np.zeros_like(self.w_h.value)
        db = np.zeros_like(self.bias.value)
        dx = np.zeros_like(x)
        dh_next = np.zeros((n, h_dim))
        dc_next = np.zeros((n, h_dim))

        for step in reversed(range(t)):
            i_g, f_g = cache["i"][step], cache["f"][step]
            g_g, o_g = cache["g"][step], cache["o"][step]
            ct = cache["ct"][step]
            c_prev = cache["c_prev"][step]
            h_prev = cache["h_prev"][step]

            dh = grad_h_seq[step] + dh_next
            dc = dc_next + dh * o_g * (1.0 - ct**2)

            d_i = dc * g_g * i_g * (1.0 - i_g)
            d_f = dc * c_prev * f_g * (1.0 - f_g)
            d_g = dc * i_g * (1.0 - g_g**2)
            d_o = dh * ct * o_g * (1.0 - o_g)
            dz = np.concatenate([d_i, d_f, d_g, d_o], axis=1)

            dw_x += dz.T @ x[:, step, :]
            dw_h += dz.T @ h_prev
            db += dz.sum(axis=0)
            dx[:, step, :] = dz @ self.w_x.value
            dh_next = dz @ self.w_h.value
            dc_next = dc * f_g

        self.w_x.accumulate(dw_x)
        self.w_h.accumulate(dw_h)
        self.bias.accumulate(db)
        return dx


class StackedLSTM(Sequential):
    """Stack of LSTM layers, as used in both Adrias predictor models.

    The paper stacks 2 LSTM layers in front of the dense blocks; here the
    depth is configurable.  All layers except the last return sequences;
    the last returns either sequences or the final hidden state.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 2,
        return_sequences: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        layers = []
        for index in range(num_layers):
            layers.append(
                LSTM(
                    input_size=input_size if index == 0 else hidden_size,
                    hidden_size=hidden_size,
                    return_sequences=(
                        True if index < num_layers - 1 else return_sequences
                    ),
                    rng=rng,
                )
            )
        super().__init__(*layers)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.return_sequences = return_sequences
