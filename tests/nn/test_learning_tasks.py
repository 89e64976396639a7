"""End-to-end learning tasks: the substrate must actually learn.

Small synthetic problems with known solutions, each solvable in a few
seconds of CPU training.  These catch subtle gradient or optimizer bugs
that unit-level checks miss.
"""

import numpy as np

from repro.nn import (
    LSTM,
    Adam,
    DataLoader,
    Linear,
    MSELoss,
    ReLU,
    Sequential,
    StackedLSTM,
    TensorDataset,
    Trainer,
)


class TestSequenceRegression:
    def test_lstm_learns_running_sum(self):
        """Predict the mean of a scalar sequence — pure memory task."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(256, 8, 1))
        y = x.mean(axis=1)
        model = Sequential(
            LSTM(1, 12, return_sequences=False, rng=rng),
            Linear(12, 1, rng=rng),
        )
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), MSELoss())
        loader = DataLoader(TensorDataset(x, y), batch_size=32, shuffle=True,
                            rng=rng)
        history = trainer.fit(loader, epochs=40)
        assert history.train_loss[-1] < 0.01

    def test_lstm_learns_last_element(self):
        """Copy the final timestep — tests gating, not accumulation."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(256, 6, 2))
        y = x[:, -1, :]
        model = Sequential(
            StackedLSTM(2, 16, num_layers=2, return_sequences=False, rng=rng),
            Linear(16, 2, rng=rng),
        )
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), MSELoss())
        loader = DataLoader(TensorDataset(x, y), batch_size=32, shuffle=True,
                            rng=rng)
        history = trainer.fit(loader, epochs=50)
        assert history.train_loss[-1] < 0.05

    def test_order_sensitivity(self):
        """An LSTM must distinguish a sequence from its reverse."""
        rng = np.random.default_rng(2)
        lstm = LSTM(1, 8, return_sequences=False, rng=rng)
        x = rng.normal(size=(1, 10, 1))
        forward_out = lstm.forward(x)
        backward_out = lstm.forward(x[:, ::-1, :])
        assert not np.allclose(forward_out, backward_out)


class TestNonlinearRegression:
    def test_mlp_learns_xor_like_surface(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(512, 2))
        y = (x[:, 0] * x[:, 1]).reshape(-1, 1)  # multiplicative interaction
        model = Sequential(
            Linear(2, 24, rng=rng), ReLU(),
            Linear(24, 24, rng=rng), ReLU(),
            Linear(24, 1, rng=rng),
        )
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), MSELoss())
        loader = DataLoader(TensorDataset(x, y), batch_size=64, shuffle=True,
                            rng=rng)
        history = trainer.fit(loader, epochs=60)
        assert history.train_loss[-1] < 0.005

    def test_linear_model_cannot_solve_it(self):
        """Sanity counter-test: the interaction needs the hidden layer."""
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(512, 2))
        y = (x[:, 0] * x[:, 1]).reshape(-1, 1)
        model = Sequential(Linear(2, 1, rng=rng))
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), MSELoss())
        loader = DataLoader(TensorDataset(x, y), batch_size=64, shuffle=True,
                            rng=rng)
        history = trainer.fit(loader, epochs=40)
        variance = float(np.var(y))
        assert history.train_loss[-1] > 0.5 * variance
