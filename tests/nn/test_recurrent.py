import numpy as np
import pytest

from repro.nn import LSTM, StackedLSTM
from repro.nn.activations import sigmoid
from tests.helpers import check_input_grad, check_param_grads, sigmoid_sign_split


def reference_forward(lstm, x, one_gemm):
    """The step loop with one masked sigmoid call per gate slice.

    ``one_gemm`` projects every timestep's input in one GEMM, as the
    inference forward does; otherwise each step projects its own, as
    the training forward does.  Returns the output and the BPTT cache.
    """
    n, t, _ = x.shape
    h = lstm.hidden_size
    s_i, s_f, s_g, s_o = lstm._slices()
    w_x_t, w_h_t, bias = lstm.w_x.value.T, lstm.w_h.value.T, lstm.bias.value
    z_x = (x.reshape(n * t, lstm.input_size) @ w_x_t).reshape(n, t, 4 * h)
    cache = {
        name: np.empty((t, n, h))
        for name in ("i", "f", "g", "o", "c", "ct", "h", "h_prev", "c_prev")
    }
    h_prev, c_prev = np.zeros((n, h)), np.zeros((n, h))
    for step in range(t):
        cache["h_prev"][step], cache["c_prev"][step] = h_prev, c_prev
        z_in = z_x[:, step, :] if one_gemm else x[:, step, :] @ w_x_t
        z = z_in + h_prev @ w_h_t + bias
        i_g = sigmoid_sign_split(z[:, s_i])
        f_g = sigmoid_sign_split(z[:, s_f])
        g_g = np.tanh(z[:, s_g])
        o_g = sigmoid_sign_split(z[:, s_o])
        c_prev = f_g * c_prev + i_g * g_g
        ct = np.tanh(c_prev)
        h_prev = o_g * ct
        for name, value in zip(
            ("i", "f", "g", "o", "c", "ct", "h"),
            (i_g, f_g, g_g, o_g, c_prev, ct, h_prev),
        ):
            cache[name][step] = value
    hiddens = cache["h"]
    out = hiddens.transpose(1, 0, 2) if lstm.return_sequences else hiddens[-1]
    return out, cache


class TestLSTMForward:
    def test_output_shapes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 6, 4))
        seq = LSTM(4, 5, return_sequences=True, rng=rng)
        last = LSTM(4, 5, return_sequences=False, rng=rng)
        assert seq.forward(x).shape == (3, 6, 5)
        assert last.forward(x).shape == (3, 5)

    def test_last_of_sequence_equals_last_state(self):
        rng = np.random.default_rng(1)
        lstm = LSTM(3, 4, return_sequences=True, rng=np.random.default_rng(2))
        lstm2 = LSTM(3, 4, return_sequences=False, rng=np.random.default_rng(2))
        x = rng.normal(size=(2, 5, 3))
        assert np.allclose(lstm.forward(x)[:, -1], lstm2.forward(x))

    def test_single_step_matches_manual_cell(self):
        rng = np.random.default_rng(3)
        lstm = LSTM(2, 3, return_sequences=False, rng=rng)
        x = rng.normal(size=(1, 1, 2))
        z = x[:, 0, :] @ lstm.w_x.value.T + lstm.bias.value
        h = 3
        i = sigmoid(z[:, :h])
        f = sigmoid(z[:, h:2 * h])
        g = np.tanh(z[:, 2 * h:3 * h])
        o = sigmoid(z[:, 3 * h:])
        expected = o * np.tanh(i * g)
        assert np.allclose(lstm.forward(x), expected)

    def test_forget_bias_initialized_to_one(self):
        lstm = LSTM(2, 4)
        assert np.allclose(lstm.bias.value[4:8], 1.0)
        assert np.allclose(lstm.bias.value[:4], 0.0)

    def test_hidden_bounded_by_tanh(self):
        rng = np.random.default_rng(4)
        lstm = LSTM(3, 8, rng=rng)
        x = 100.0 * rng.normal(size=(2, 10, 3))
        out = lstm.forward(x)
        assert np.all(np.abs(out) <= 1.0)
        assert np.all(np.isfinite(out))

    def test_input_validation(self):
        lstm = LSTM(3, 4)
        with pytest.raises(ValueError):
            lstm.forward(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            lstm.forward(np.zeros((2, 5, 7)))
        with pytest.raises(ValueError):
            LSTM(0, 4)


class TestOneGateActivationPerStep:
    """Both forwards activate all four gates with one sigmoid call per
    step; each must match the per-gate masked-call loop bit for bit."""

    # (N, T, D, H, return_sequences); the inputs are scaled up so that
    # some gates saturate.
    CASES = [(1, 12, 7, 32, False), (2, 24, 7, 32, True), (3, 5, 4, 6, False)]

    @pytest.mark.parametrize("n,t,d,h,return_sequences", CASES)
    def test_training_forward_and_bptt_cache(self, n, t, d, h, return_sequences):
        rng = np.random.default_rng(n * 100 + t)
        lstm = LSTM(d, h, return_sequences=return_sequences, rng=rng)
        x = 4.0 * rng.normal(size=(n, t, d))
        out = lstm.forward(x)
        expected, cache = reference_forward(lstm, x, one_gemm=False)
        assert np.array_equal(out, expected)
        # Identical caches mean backward yields identical gradients.
        assert lstm._cache["x"] is x
        for name, value in cache.items():
            assert np.array_equal(lstm._cache[name], value), name

    @pytest.mark.parametrize("n,t,d,h,return_sequences", CASES)
    def test_inference_forward(self, n, t, d, h, return_sequences):
        rng = np.random.default_rng(n * 100 + t)
        lstm = LSTM(d, h, return_sequences=return_sequences, rng=rng)
        x = 4.0 * rng.normal(size=(n, t, d))
        lstm.eval()
        expected, _ = reference_forward(lstm, x, one_gemm=True)
        assert np.array_equal(lstm.forward(x), expected)


class TestLSTMBackward:
    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_param_grads_numerically(self, return_sequences):
        rng = np.random.default_rng(5)
        lstm = LSTM(3, 4, return_sequences=return_sequences, rng=rng)
        x = rng.normal(size=(2, 6, 3))
        shape = (2, 6, 4) if return_sequences else (2, 4)
        y = rng.normal(size=shape)
        check_param_grads(lstm, (x,), y, tol=1e-5)

    def test_input_grad_numerically(self):
        rng = np.random.default_rng(6)
        lstm = LSTM(3, 4, return_sequences=False, rng=rng)
        x = rng.normal(size=(2, 5, 3))
        y = rng.normal(size=(2, 4))
        check_input_grad(lstm, x, y, tol=1e-5)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            LSTM(2, 2).backward(np.zeros((1, 2)))


class TestStackedLSTM:
    def test_layer_wiring(self):
        stack = StackedLSTM(7, 16, num_layers=3, return_sequences=False)
        assert len(stack) == 3
        assert stack[0].input_size == 7
        assert stack[1].input_size == 16
        assert stack[0].return_sequences is True
        assert stack[2].return_sequences is False

    def test_forward_shape(self):
        rng = np.random.default_rng(7)
        stack = StackedLSTM(5, 8, num_layers=2, return_sequences=False, rng=rng)
        x = rng.normal(size=(4, 10, 5))
        assert stack.forward(x).shape == (4, 8)

    def test_param_grads_numerically(self):
        rng = np.random.default_rng(8)
        stack = StackedLSTM(2, 3, num_layers=2, return_sequences=False, rng=rng)
        x = rng.normal(size=(2, 4, 2))
        y = rng.normal(size=(2, 3))
        check_param_grads(stack, (x,), y, tol=1e-5, n_checks=3)

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            StackedLSTM(2, 3, num_layers=0)
