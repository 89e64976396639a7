import numpy as np
import pytest

from repro.nn import Adam, Parameter


def quadratic_step(param: Parameter) -> float:
    """Loss = ||x||^2; gradient = 2x."""
    param.zero_grad()
    param.accumulate(2.0 * param.value)
    return float(np.sum(param.value**2))


class TestAdam:
    def test_first_step_size_is_lr(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01)
        p.accumulate(np.array([123.0]))
        opt.step()
        # Bias-corrected first step is ~lr regardless of gradient scale.
        assert p.value[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0, 1.0]))
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            quadratic_step(p)
            opt.step()
        assert np.allclose(p.value, 0.0, atol=1e-3)

    def test_invalid_betas(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            Adam([p], betas=(1.0, 0.9))

    def test_zero_grad_clears_all_params(self):
        a, b = Parameter(np.zeros(2)), Parameter(np.zeros(3))
        opt = Adam([a, b])
        a.accumulate(np.ones(2))
        b.accumulate(np.ones(3))
        opt.zero_grad()
        assert np.all(a.grad == 0) and np.all(b.grad == 0)


class TestValidation:
    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)


class TestStateDictRoundTrip:
    def test_restored_optimizer_continues_identically(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.01)
        for _ in range(4):
            quadratic_step(p)
            opt.step()
        state = opt.state_dict()
        value = p.value.copy()

        # Diverge, then restore both parameter and optimizer state.
        for _ in range(3):
            quadratic_step(p)
            opt.step()
        p.value[...] = value
        opt.load_state_dict(state)
        quadratic_step(p)
        opt.step()
        after_restore = p.value.copy()

        # Fresh run to the same point must land on the same values.
        q = Parameter(np.array([5.0, -3.0]))
        fresh = Adam([q], lr=0.01)
        for _ in range(5):
            quadratic_step(q)
            fresh.step()
        assert np.array_equal(after_restore, q.value)

    def test_state_dict_copies_are_independent(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01)
        quadratic_step(p)
        opt.step()
        state = opt.state_dict()
        state["slots"]["m"][0][...] = 777.0
        assert opt.state_dict()["slots"]["m"][0][0] != 777.0

    def test_slot_shape_mismatch_raises(self):
        opt = Adam([Parameter(np.zeros(2))], lr=0.01)
        other = Adam([Parameter(np.zeros(3))], lr=0.01)
        with pytest.raises(ValueError):
            opt.load_state_dict(other.state_dict())

    def test_state_dict_layout(self):
        """Fit checkpoints encode this layout: the LR, the step count and
        one ``m`` and one ``v`` buffer per parameter."""
        a, b = Parameter(np.zeros(2)), Parameter(np.zeros(3))
        opt = Adam([a, b], lr=0.01)
        opt.step()
        state = opt.state_dict()
        assert state["lr"] == 0.01
        assert state["extra"] == {"t": 1}
        assert sorted(state["slots"]) == ["m", "v"]
        for arrays in state["slots"].values():
            assert [x.shape for x in arrays] == [(2,), (3,)]
