"""Property-based gradient checks on randomly composed networks.

Hypothesis draws small random architectures (depth, widths) and the
analytic gradients must match central differences — the strongest
correctness guarantee the nn substrate offers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import LSTM, BatchNorm1d, Linear, Sequential
from tests.helpers import check_input_grad, check_param_grads

# No ReLU: its kink makes central differences unreliable exactly at 0,
# which random draws can hit.  Batch norm (over the batch, in training
# mode) is the smooth non-linearity of the dense blocks.
WIDTHS = st.integers(min_value=1, max_value=6)


@st.composite
def mlp_architectures(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    widths = [draw(WIDTHS) for _ in range(depth + 1)]
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return widths, seed


class TestComposedMLP:
    @given(arch=mlp_architectures())
    @settings(max_examples=15, deadline=None)
    def test_param_and_input_grads(self, arch):
        widths, seed = arch
        rng = np.random.default_rng(seed)
        layers = []
        for n_in, n_out in zip(widths, widths[1:]):
            layers.append(Linear(n_in, n_out, rng=rng))
            layers.append(BatchNorm1d(n_out))
        model = Sequential(*layers)
        x = rng.normal(size=(3, widths[0]))
        y = rng.normal(size=(3, widths[-1]))
        check_param_grads(model, (x,), y, n_checks=3, tol=1e-4)
        check_input_grad(model, x, y, n_checks=3, tol=1e-4)


class TestComposedRecurrent:
    @given(
        input_size=WIDTHS,
        hidden=WIDTHS,
        timesteps=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_lstm_head_grads(self, input_size, hidden, timesteps, seed):
        rng = np.random.default_rng(seed)
        model = Sequential(
            LSTM(input_size, hidden, return_sequences=False, rng=rng),
            Linear(hidden, 2, rng=rng),
        )
        x = rng.normal(size=(2, timesteps, input_size))
        y = rng.normal(size=(2, 2))
        check_param_grads(model, (x,), y, n_checks=3, tol=1e-4)
