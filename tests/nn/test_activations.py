import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Identity, LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.activations import sigmoid
from tests.helpers import check_input_grad, sigmoid_sign_split


ARRAYS = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=20
).map(lambda v: np.array(v).reshape(1, -1))

# (N, 4H) LSTM gate pre-activations: any float64, with signed zeros,
# infinities, NaN and magnitudes past exp's overflow point (~709.8).
GATE_PREACTIVATIONS = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 6).map(lambda h: 4 * h)),
    elements=st.one_of(
        st.floats(width=64),
        st.floats(min_value=-40.0, max_value=40.0),
        st.sampled_from(
            [0.0, -0.0, np.inf, -np.inf, np.nan, 710.5, -710.5, 1e300, -1e300]
        ),
    ),
)


class TestSigmoidFunction:
    def test_known_values(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
        assert sigmoid(np.array([np.log(3)]))[0] == pytest.approx(0.75)

    def test_extreme_inputs_do_not_overflow(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)
        assert np.all(np.isfinite(out))

    @given(x=ARRAYS)
    @settings(max_examples=30, deadline=None)
    def test_bounded_and_monotone(self, x):
        out = sigmoid(np.sort(x.ravel()))
        assert np.all(out >= 0) and np.all(out <= 1)
        assert np.all(np.diff(out) >= 0)

    @given(z=GATE_PREACTIVATIONS)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_sign_split(self, z):
        """The branch-free form is the sign-split form, bit for bit, on a
        whole gate block and on each gate's slice of it."""
        whole = sigmoid(z)
        assert np.array_equal(whole, sigmoid_sign_split(z), equal_nan=True)
        h = z.shape[1] // 4
        for gate in range(4):
            part = z[:, gate * h : (gate + 1) * h]
            expected = sigmoid_sign_split(part)
            assert np.array_equal(sigmoid(part), expected, equal_nan=True)
            assert np.array_equal(
                whole[:, gate * h : (gate + 1) * h], expected, equal_nan=True
            )


class TestReLU:
    def test_forward_clamps_negative(self):
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 0.0, 2.0]]))
        assert np.allclose(out, [[0.0, 0.0, 2.0]])

    def test_backward_masks(self):
        relu = ReLU()
        relu.forward(np.array([[-1.0, 3.0]]))
        grad = relu.backward(np.array([[5.0, 5.0]]))
        assert np.allclose(grad, [[0.0, 5.0]])

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.zeros((1, 1)))


class TestLeakyReLU:
    def test_negative_slope_applied(self):
        layer = LeakyReLU(0.1)
        out = layer.forward(np.array([[-2.0, 4.0]]))
        assert np.allclose(out, [[-0.2, 4.0]])

    def test_gradient_check(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4)) + 0.05  # keep away from the kink
        y = rng.normal(size=(3, 4))
        check_input_grad(LeakyReLU(0.2), x, y)

    def test_invalid_slope(self):
        with pytest.raises(ValueError):
            LeakyReLU(-0.1)


class TestSmoothActivations:
    @pytest.mark.parametrize("layer_cls", [Tanh, Sigmoid])
    def test_gradient_check(self, layer_cls):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))
        check_input_grad(layer_cls(), x, y)

    def test_tanh_values(self):
        out = Tanh().forward(np.array([[0.0, 100.0]]))
        assert out[0, 0] == pytest.approx(0.0)
        assert out[0, 1] == pytest.approx(1.0)

    @pytest.mark.parametrize("layer_cls", [Tanh, Sigmoid])
    def test_backward_before_forward_raises(self, layer_cls):
        with pytest.raises(RuntimeError):
            layer_cls().backward(np.zeros((1, 1)))


class TestIdentity:
    def test_passthrough_both_ways(self):
        layer = Identity()
        x = np.arange(6.0).reshape(2, 3)
        assert layer.forward(x) is x
        assert layer.backward(x) is x
