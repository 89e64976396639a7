import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter, ReLU, Sequential


def make_mlp(rng=None):
    rng = rng or np.random.default_rng(0)
    return Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))


class TestRegistration:
    def test_attribute_assignment_registers_parameters(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))

        m = M()
        assert [p.name for p in m.parameters()] == ["w"]

    def test_child_modules_contribute_parameters(self):
        mlp = make_mlp()
        names = [name for name, _ in mlp.named_parameters()]
        assert "0.weight" in names and "2.bias" in names
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_modules_iterates_subtree(self):
        mlp = make_mlp()
        assert len(list(mlp.modules())) == 4  # self + 3 layers


class TestModes:
    def test_train_eval_propagate(self):
        mlp = make_mlp()
        mlp.eval()
        assert all(not m.training for m in mlp.modules())
        mlp.train()
        assert all(m.training for m in mlp.modules())

    def test_zero_grad_clears_all(self):
        mlp = make_mlp()
        x = np.ones((3, 4))
        out = mlp.forward(x)
        mlp.backward(np.ones_like(out))
        assert any(np.any(p.grad != 0) for p in mlp.parameters())
        mlp.zero_grad()
        assert all(np.all(p.grad == 0) for p in mlp.parameters())


class TestSequential:
    def test_forward_composes_in_order(self):
        rng = np.random.default_rng(1)
        a, b = Linear(3, 3, rng=rng), Linear(3, 3, rng=rng)
        seq = Sequential(a, b)
        x = rng.normal(size=(2, 3))
        expected = b.forward(a.forward(x))
        assert np.allclose(seq.forward(x), expected)

    def test_len_and_getitem(self):
        mlp = make_mlp()
        assert len(mlp) == 3
        assert isinstance(mlp[1], ReLU)


class TestStateDict:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        m1, m2 = make_mlp(np.random.default_rng(3)), make_mlp(np.random.default_rng(4))
        x = rng.normal(size=(5, 4))
        assert not np.allclose(m1.forward(x), m2.forward(x))
        m2.load_state_dict(m1.state_dict())
        assert np.allclose(m1.forward(x), m2.forward(x))

    def test_state_dict_returns_copies(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        state["0.weight"][...] = 99.0
        assert not np.any(mlp[0].weight.value == 99.0)

    def test_unexpected_key_raises(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_missing_key_raises(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        del state["0.weight"]
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        state["0.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)
