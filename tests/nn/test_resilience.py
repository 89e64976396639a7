"""Resilient training runtime: checkpoints, resume, divergence recovery."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    CheckpointManager,
    CheckpointWriteError,
    DataLoader,
    DivergenceError,
    DivergenceGuard,
    Dropout,
    EarlyStopping,
    FitCheckpointError,
    Linear,
    MSELoss,
    NonFiniteLossError,
    RecoveryPolicy,
    ReLU,
    Sequential,
    TensorDataset,
    Trainer,
    TrainingDivergedError,
    capture_fit_state,
    restore_fit_state,
)
from repro.nn.resilience import decode_fit_state, encode_fit_state
from repro.nn.training import History


def dataset(n=64, seed=42):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    w = np.array([[1.0], [2.0], [-1.0], [0.5]])
    return TensorDataset(x, x @ w + 0.1 * rng.normal(size=(n, 1)))


def make_parts(seed=0, lr=1e-2, dropout=0.2):
    """(trainer, loader, val_loader, early_stopping) with shared dropout RNG."""
    rng = np.random.default_rng(seed)
    model = Sequential(
        Linear(4, 16, rng=rng), ReLU(), Dropout(dropout, rng=rng),
        Linear(16, 1, rng=rng),
    )
    trainer = Trainer(model, Adam(model.parameters(), lr=lr), MSELoss())
    ds = dataset()
    loader = DataLoader(ds, batch_size=16, shuffle=True,
                        rng=np.random.default_rng(7))
    val = DataLoader(TensorDataset(ds.arrays[0][:16], ds.arrays[1][:16]),
                     batch_size=16)
    return trainer, loader, val, EarlyStopping(patience=50)


def params_of(trainer):
    return [p.value.copy() for p in trainer.model.parameters()]


class TestFitStateRoundTrip:
    def test_capture_restore_is_lossless(self):
        trainer, loader, val, es = make_parts()
        history = History()
        trainer.fit(loader, val, epochs=3, early_stopping=es)
        state = capture_fit_state(trainer, loader, History(), es, epoch_next=3)
        # Perturb everything, then restore.
        for p in trainer.model.parameters():
            p.value[...] = 0.0
        trainer.optimizer.lr = 123.0
        trainer.optimizer.step()
        loader.rng = np.random.default_rng(999)
        restore_fit_state(trainer, loader, history, es, state)
        assert trainer.optimizer.lr == 1e-2
        again = capture_fit_state(trainer, loader, history, es, epoch_next=3)
        for key in state.model:
            assert np.array_equal(state.model[key], again.model[key])
        assert state.rngs == again.rngs
        assert again.optimizer["extra"] == state.optimizer["extra"]
        for slot, arrays in state.optimizer["slots"].items():
            for a, b in zip(arrays, again.optimizer["slots"][slot]):
                assert np.array_equal(a, b)

    def test_encode_decode_roundtrip(self):
        trainer, loader, val, es = make_parts()
        trainer.fit(loader, val, epochs=2, early_stopping=es)
        state = capture_fit_state(trainer, loader, History(), es,
                                  epoch_next=2, recoveries=1)
        decoded = decode_fit_state(encode_fit_state(state))
        assert decoded.epoch_next == 2
        assert decoded.recoveries == 1
        assert decoded.rngs == state.rngs
        for key in state.model:
            assert np.array_equal(decoded.model[key], state.model[key])
        for slot in state.optimizer["slots"]:
            for a, b in zip(state.optimizer["slots"][slot],
                            decoded.optimizer["slots"][slot]):
                assert np.array_equal(a, b)
        assert decoded.early_stopping["best"] == es.best

    def test_early_stopping_mismatch_raises(self):
        trainer, loader, val, es = make_parts()
        state = capture_fit_state(trainer, loader, History(), es,
                                  epoch_next=0)
        with pytest.raises(FitCheckpointError, match="early-stopping"):
            restore_fit_state(trainer, loader, History(), None, state)


class TestBitIdenticalResume:
    @pytest.mark.parametrize("kill_after", [1, 2, 4])
    def test_resume_matches_straight_through(self, tmp_path, kill_after):
        epochs = 6
        trainer, loader, val, es = make_parts()
        full = trainer.fit(loader, val, epochs=epochs, early_stopping=es)
        reference = params_of(trainer)

        path = tmp_path / "fit.ckpt"
        first, loader1, val1, es1 = make_parts()
        first.fit(loader1, val1, epochs=kill_after, early_stopping=es1,
                  checkpoint=CheckpointManager(path))

        second, loader2, val2, es2 = make_parts()
        resumed = second.fit(loader2, val2, epochs=epochs, early_stopping=es2,
                             checkpoint=CheckpointManager(path), resume=True)
        assert resumed.train_loss == full.train_loss
        assert resumed.val_loss == full.val_loss
        for a, b in zip(reference, params_of(second)):
            assert np.array_equal(a, b)

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        trainer, loader, val, es = make_parts()
        history = trainer.fit(
            loader, val, epochs=2, early_stopping=es,
            checkpoint=CheckpointManager(tmp_path / "none.ckpt"), resume=True,
        )
        assert history.epochs == 2

    def test_resume_of_finished_fit_is_noop(self, tmp_path):
        path = tmp_path / "fit.ckpt"
        trainer, loader, val, es = make_parts()
        trainer.fit(loader, val, epochs=3, early_stopping=es,
                    checkpoint=CheckpointManager(path))
        reference = params_of(trainer)
        again, loader2, val2, es2 = make_parts()
        history = again.fit(loader2, val2, epochs=3, early_stopping=es2,
                            checkpoint=CheckpointManager(path), resume=True)
        assert history.epochs == 3  # restored, not re-run
        for a, b in zip(reference, params_of(again)):
            assert np.array_equal(a, b)


class TestCheckpointManager:
    def test_interval_skips_but_final_is_forced(self, tmp_path):
        path = tmp_path / "fit.ckpt"
        manager = CheckpointManager(path, interval=3)
        trainer, loader, val, es = make_parts()
        trainer.fit(loader, val, epochs=4, early_stopping=es,
                    checkpoint=manager)
        assert manager.saves == 2  # boundary 3 plus the forced final one
        assert manager.load().epoch_next == 4

    def test_missing_file_raises_and_try_load_none(self, tmp_path):
        manager = CheckpointManager(tmp_path / "absent.ckpt")
        assert manager.try_load() is None
        with pytest.raises(FitCheckpointError, match="no fit checkpoint"):
            manager.load()

    def test_corrupt_bytes_always_raise(self, tmp_path):
        path = tmp_path / "fit.ckpt"
        trainer, loader, val, es = make_parts()
        trainer.fit(loader, val, epochs=2, early_stopping=es,
                    checkpoint=CheckpointManager(path))
        blob = path.read_bytes()
        step = max(1, len(blob) // 64)
        for pos in range(0, len(blob), step):
            mutated = bytearray(blob)
            mutated[pos] ^= 0xFF
            path.write_bytes(bytes(mutated))
            with pytest.raises(FitCheckpointError):
                CheckpointManager(path).load()

    def test_truncated_bytes_always_raise(self, tmp_path):
        path = tmp_path / "fit.ckpt"
        trainer, loader, val, es = make_parts()
        trainer.fit(loader, val, epochs=1, early_stopping=es,
                    checkpoint=CheckpointManager(path))
        blob = path.read_bytes()
        for cut in (0, 1, 10, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(FitCheckpointError):
                CheckpointManager(path).load()

    def test_write_failure_keeps_previous_checkpoint(self, tmp_path):
        class FailingChaos:
            def __init__(self):
                self.fail_at = set()

            def checkpoint_write(self, epoch_next):
                if epoch_next in self.fail_at:
                    raise CheckpointWriteError("injected")

        path = tmp_path / "fit.ckpt"
        chaos = FailingChaos()
        manager = CheckpointManager(path, chaos=chaos)
        trainer, loader, val, es = make_parts()
        chaos.fail_at = {2, 3}
        trainer.fit(loader, val, epochs=3, early_stopping=es,
                    checkpoint=manager)
        assert manager.write_failures == 2
        # Boundary 1 survived; later failed writes never clobbered it...
        # except the final forced save also failed, so epoch 1 remains.
        assert manager.load().epoch_next == 1


class TestTrainEpochRestore:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_loss_restores_entry_params(self):
        ds = TensorDataset(np.full((8, 4), 1e200), np.zeros((8, 1)))
        trainer, _, _, _ = make_parts(dropout=0.0)
        before = params_of(trainer)
        with pytest.raises(NonFiniteLossError):
            trainer.train_epoch(DataLoader(ds, batch_size=8))
        for a, b in zip(before, params_of(trainer)):
            assert np.array_equal(a, b)

    def test_error_is_floating_point_error(self):
        assert issubclass(NonFiniteLossError, FloatingPointError)


class NanGradChaos:
    """Poison gradients once at each epoch in ``epochs``."""

    def __init__(self, epochs):
        self.epochs = set(epochs)
        self.fired = set()

    def corrupt_gradients(self, epoch, params):
        if epoch in self.epochs and epoch not in self.fired:
            self.fired.add(epoch)
            for p in params:
                p.grad[...] = np.nan

    def checkpoint_write(self, epoch_next):
        pass


class TestDivergenceRecovery:
    def test_nan_grads_recovered_with_lr_cut(self):
        trainer, loader, val, es = make_parts()
        trainer.chaos = NanGradChaos({2})
        base_lr = trainer.optimizer.lr
        history = trainer.fit(loader, val, epochs=5, early_stopping=es,
                              recovery=RecoveryPolicy(lr_factor=0.5))
        assert history.epochs == 5
        assert all(np.all(np.isfinite(p.value))
                   for p in trainer.model.parameters())
        assert trainer.optimizer.lr == base_lr * 0.5  # cut once

    def test_budget_exhaustion_raises(self):
        class AlwaysNan(NanGradChaos):
            def corrupt_gradients(self, epoch, params):
                for p in params:
                    p.grad[...] = np.nan

        trainer, loader, val, es = make_parts()
        trainer.chaos = AlwaysNan(())
        with pytest.raises(TrainingDivergedError):
            trainer.fit(loader, val, epochs=5, early_stopping=es,
                        recovery=RecoveryPolicy(max_recoveries=2))

    def test_without_recovery_divergence_raises(self):
        trainer, loader, val, es = make_parts()
        trainer.chaos = NanGradChaos({1})
        with pytest.raises(FloatingPointError):
            trainer.fit(loader, val, epochs=4, early_stopping=es)

    def test_spike_detection(self):
        guard = DivergenceGuard(RecoveryPolicy(spike_factor=10.0))
        trainer, _, _, _ = make_parts()
        history = History()
        history.train_loss.extend([1.0, 1.1, 0.9])
        with pytest.raises(DivergenceError, match="spike"):
            guard.check(trainer.model, 50.0, history)
        guard.check(trainer.model, 5.0, history)  # below the threshold

    def test_nonfinite_params_detected(self):
        guard = DivergenceGuard(RecoveryPolicy())
        trainer, _, _, _ = make_parts()
        next(iter(trainer.model.parameters())).value[0] = np.nan
        with pytest.raises(DivergenceError, match="non-finite"):
            guard.check(trainer.model, 1.0, History())

    def test_recovery_with_checkpoint_resumes_from_disk(self, tmp_path):
        path = tmp_path / "fit.ckpt"
        trainer, loader, val, es = make_parts()
        trainer.chaos = NanGradChaos({3})
        history = trainer.fit(loader, val, epochs=5, early_stopping=es,
                              checkpoint=CheckpointManager(path),
                              recovery=RecoveryPolicy())
        assert history.epochs == 5
        assert CheckpointManager(path).load().recoveries == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_recoveries=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(lr_factor=1.5)
        with pytest.raises(ValueError):
            RecoveryPolicy(spike_factor=0.5)
