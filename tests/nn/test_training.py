import numpy as np
import pytest

from repro.nn import (
    Adam,
    DataLoader,
    EarlyStopping,
    Linear,
    MSELoss,
    ReLU,
    Sequential,
    TensorDataset,
    Trainer,
)


def regression_problem(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    w = np.array([1.0, -2.0, 0.5, 3.0])
    y = (x @ w + 0.1 * rng.normal(size=n)).reshape(-1, 1)
    return TensorDataset(x, y)


def make_trainer(seed=0, lr=0.01):
    rng = np.random.default_rng(seed)
    model = Sequential(Linear(4, 16, rng=rng), ReLU(), Linear(16, 1, rng=rng))
    return Trainer(model, Adam(model.parameters(), lr=lr), MSELoss())


class TestTrainer:
    def test_loss_decreases(self):
        ds = regression_problem()
        trainer = make_trainer()
        loader = DataLoader(ds, batch_size=32, shuffle=True,
                            rng=np.random.default_rng(1))
        history = trainer.fit(loader, epochs=25)
        assert history.train_loss[-1] < history.train_loss[0] * 0.2

    def test_validation_tracked(self):
        ds = regression_problem()
        trainer = make_trainer()
        loader = DataLoader(ds, batch_size=32)
        history = trainer.fit(loader, val_loader=loader, epochs=3)
        assert len(history.val_loss) == 3
        # The last entry is the final model's loss on the validation set.
        assert history.val_loss[-1] == trainer.evaluate(loader)

    def test_evaluate_does_not_touch_params(self):
        ds = regression_problem()
        trainer = make_trainer()
        loader = DataLoader(ds, batch_size=32)
        before = trainer.model.state_dict()
        trainer.evaluate(loader)
        after = trainer.model.state_dict()
        assert all(np.allclose(before[k], after[k]) for k in before)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_loss_raises(self):
        ds = TensorDataset(np.full((8, 4), 1e200), np.zeros((8, 1)))
        trainer = make_trainer()
        with pytest.raises(FloatingPointError):
            trainer.train_epoch(DataLoader(ds, batch_size=8))

    def test_invalid_epochs(self):
        trainer = make_trainer()
        with pytest.raises(ValueError):
            trainer.fit(DataLoader(regression_problem(), batch_size=8), epochs=0)

    def test_multi_input_forward_fn(self):
        """Every batch array but the last (the target) reaches the
        model's forward positionally, as the performance model's S, k,
        mode and Ŝ do."""

        class TwoInput(Linear):
            def forward(self, a, b):
                return super().forward(np.concatenate([a, b], axis=1))

        rng = np.random.default_rng(2)
        x1 = rng.normal(size=(50, 2))
        x2 = rng.normal(size=(50, 2))
        y = (x1.sum(axis=1) + x2.sum(axis=1)).reshape(-1, 1)
        model = TwoInput(4, 1, rng=rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), MSELoss())
        ds = TensorDataset(x1, x2, y)
        history = trainer.fit(DataLoader(ds, batch_size=16, shuffle=True), epochs=30)
        assert history.train_loss[-1] < 0.05


class TestEarlyStopping:
    def test_stops_after_patience(self):
        """The fit stops after ``patience`` epochs in a row without a
        strictly lower validation loss; a tie is no improvement."""
        scripted = iter([1.0, 0.5, 0.7, 0.6, 0.5, 0.1, 0.1])

        class ScriptedTrainer(Trainer):
            def evaluate(self, loader):
                return next(scripted)

        rng = np.random.default_rng(0)
        model = Sequential(Linear(4, 1, rng=rng))
        trainer = ScriptedTrainer(model, Adam(model.parameters()), MSELoss())
        loader = DataLoader(regression_problem(n=64), batch_size=32)
        history = trainer.fit(
            loader, val_loader=loader, epochs=100,
            early_stopping=EarlyStopping(patience=3),
        )
        assert history.val_loss == [1.0, 0.5, 0.7, 0.6, 0.5]

    def test_restores_best_state(self):
        model = Linear(2, 1)
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0, model)
        best = model.state_dict()
        model.weight.value[...] = 999.0
        stopper.update(2.0, model)
        stopper.update(3.0, model)
        stopper.restore_best(model)
        assert np.allclose(model.state_dict()["weight"], best["weight"])

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)


class TestEarlyStoppingStateDict:
    def test_round_trip_preserves_best_and_counter(self):
        model = Linear(2, 1)
        stopper = EarlyStopping(patience=3)
        stopper.update(1.0, model)
        stopper.update(2.0, model)  # bad epoch 1
        state = stopper.state_dict()

        other = EarlyStopping(patience=3)
        other.load_state_dict(state)
        assert other.best == 1.0
        assert other.bad_epochs == 1
        for key, value in stopper.best_state.items():
            assert np.array_equal(other.best_state[key], value)

    def test_restored_stopper_stops_on_schedule(self):
        model = Linear(2, 1)
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0, model)
        stopper.update(2.0, model)
        other = EarlyStopping(patience=2)
        other.load_state_dict(stopper.state_dict())
        assert other.update(3.0, model)  # bad epoch 2 of 2

    def test_state_dict_arrays_are_copies(self):
        model = Linear(2, 1)
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0, model)
        state = stopper.state_dict()
        state["best_state"]["weight"][...] = 123.0
        assert not np.allclose(stopper.best_state["weight"], 123.0)
