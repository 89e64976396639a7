"""Training loop utilities: Trainer, EarlyStopping and History.

``Trainer.fit`` optionally runs under the resilient training runtime
(:mod:`repro.nn.resilience`): pass ``checkpoint=`` a
:class:`~repro.nn.resilience.CheckpointManager` for crash-safe
epoch-boundary checkpoints (``resume=True`` continues an interrupted
fit bit-identically), and ``recovery=`` a
:class:`~repro.nn.resilience.RecoveryPolicy` to convert divergence
(non-finite losses/parameters, loss spikes) into rollback + LR
reduction instead of an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.nn.clipping import clip_grad_norm
from repro.nn.data import DataLoader
from repro.nn.losses import MSELoss
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.resilience import (
    CheckpointManager,
    DivergenceError,
    DivergenceGuard,
    RecoveryPolicy,
    capture_fit_state,
    restore_fit_state,
)

__all__ = ["History", "EarlyStopping", "NonFiniteLossError", "Trainer"]

#: Global gradient-norm bound applied before every optimizer step.
GRAD_CLIP_NORM = 5.0


class NonFiniteLossError(FloatingPointError):
    """The training loss went NaN/inf mid-epoch.

    Subclasses :class:`FloatingPointError` for backward compatibility
    with callers that caught the old exception type.
    """


@dataclass
class History:
    """Per-epoch loss curves collected during a fit."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)


class EarlyStopping:
    """Stop when validation loss fails to improve for ``patience`` epochs."""

    def __init__(self, patience: int = 10) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.best = math.inf
        self.bad_epochs = 0
        self.best_state: dict[str, np.ndarray] | None = None

    def update(self, val_loss: float, model: Module) -> bool:
        """Record the epoch result; return True when training should stop."""
        if val_loss < self.best:
            self.best = val_loss
            self.bad_epochs = 0
            self.best_state = model.state_dict()
            return False
        self.bad_epochs += 1
        return self.bad_epochs >= self.patience

    def restore_best(self, model: Module) -> None:
        if self.best_state is not None:
            model.load_state_dict(self.best_state)

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """Copy of the stopping state, including the best-weights snapshot."""
        return {
            "best": self.best,
            "bad_epochs": self.bad_epochs,
            "best_state": (
                {k: v.copy() for k, v in self.best_state.items()}
                if self.best_state is not None else None
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        self.best = float(state["best"])
        self.bad_epochs = int(state["bad_epochs"])
        best_state = state.get("best_state")
        self.best_state = (
            {k: np.asarray(v).copy() for k, v in best_state.items()}
            if best_state is not None else None
        )


class Trainer:
    """Mini-batch trainer over the explicit forward/backward API.

    The last array in each batch is the target and the rest are the
    model's inputs, passed positionally, so multi-input models (the
    Adrias performance model takes S, k, mode and Ŝ) use the same loop.
    Gradients are clipped to a global norm of :data:`GRAD_CLIP_NORM`.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Adam,
        loss: MSELoss,
        name: str = "model",
        chaos=None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss = loss
        #: Label used for observability (metrics/spans) of this fit.
        self.name = name
        #: Optional :class:`repro.faults.training.TrainingChaos` shim that
        #: injects trainer-side faults (NaN gradients) from a FaultPlan.
        self.chaos = chaos

    def train_epoch(self, loader: DataLoader, epoch: int = 0) -> float:
        """One pass over ``loader``; returns the mean training loss.

        A non-finite loss raises :class:`NonFiniteLossError` *after*
        restoring the model's entry-of-epoch parameters and buffers, so
        a failed epoch never leaves poisoned weights behind.
        """
        self.model.train()
        entry_state = self.model.state_dict()
        total = 0.0
        batches = 0
        for batch in loader:
            *inputs, target = batch
            self.optimizer.zero_grad()
            pred = self.model.forward(*inputs)
            loss_value = self.loss.forward(pred, target)
            if not math.isfinite(loss_value):
                self.model.load_state_dict(entry_state)
                raise NonFiniteLossError(
                    f"non-finite training loss: {loss_value}"
                )
            self.model.backward(self.loss.backward())
            clip_grad_norm(self.model.parameters(), GRAD_CLIP_NORM)
            if self.chaos is not None:
                self.chaos.corrupt_gradients(epoch, self.model.parameters())
            self.optimizer.step()
            total += loss_value
            batches += 1
        if batches == 0:
            raise ValueError("empty data loader")
        return total / batches

    def evaluate(self, loader: DataLoader) -> float:
        self.model.eval()
        total = 0.0
        batches = 0
        for batch in loader:
            *inputs, target = batch
            pred = self.model.forward(*inputs)
            total += self.loss.forward(pred, target)
            batches += 1
        if batches == 0:
            raise ValueError("empty data loader")
        return total / batches

    def fit(
        self,
        train_loader: DataLoader,
        val_loader: DataLoader | None = None,
        epochs: int = 50,
        early_stopping: EarlyStopping | None = None,
        checkpoint: CheckpointManager | None = None,
        resume: bool = False,
        recovery: RecoveryPolicy | None = None,
    ) -> History:
        """Run the fit loop, optionally checkpointed and self-healing.

        ``checkpoint`` persists the complete fit state at every epoch
        boundary (``resume=True`` continues from it bit-identically);
        ``recovery`` arms a :class:`DivergenceGuard` that rolls back and
        reduces the LR instead of letting divergence crash the fit.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        history = History()
        guard = (
            DivergenceGuard(recovery, self.name)
            if recovery is not None else None
        )
        epoch = 0
        stopped = False
        if checkpoint is not None and resume:
            state = checkpoint.try_load()
            if state is not None:
                restore_fit_state(
                    self, train_loader, history, early_stopping, state
                )
                epoch = state.epoch_next
                stopped = state.stopped
                if guard is not None:
                    guard.recoveries = state.recoveries
        with obs.tracer().span(
            "nn.fit", model=self.name, epochs=epochs, start_epoch=epoch
        ) as fit_span:
            while epoch < epochs and not stopped:
                snapshot = None
                if guard is not None:
                    # Pre-epoch rollback point; fresher than the on-disk
                    # checkpoint when the save interval exceeds 1.
                    snapshot = capture_fit_state(
                        self, train_loader, history, early_stopping,
                        epoch_next=epoch, recoveries=guard.recoveries,
                    )
                try:
                    with obs.tracer().span(
                        "nn.epoch", model=self.name, epoch=epoch
                    ) as epoch_span:
                        train_loss = self.train_epoch(train_loader, epoch)
                        if guard is not None:
                            guard.check(self.model, train_loss, history)
                        history.train_loss.append(train_loss)
                        val_loss = None
                        if val_loader is not None:
                            val_loss = self.evaluate(val_loader)
                            history.val_loss.append(val_loss)
                        epoch_span.set(train_loss=train_loss, val_loss=val_loss)
                except (DivergenceError, FloatingPointError) as error:
                    if guard is None:
                        raise
                    epoch = guard.recover(
                        self, train_loader, history, early_stopping,
                        checkpoint, snapshot, error, epoch,
                    )
                    continue
                self._observe_epoch(epoch_span, train_loss, val_loss)
                epoch += 1
                if early_stopping is not None and val_loss is not None:
                    stopped = early_stopping.update(val_loss, self.model)
                if checkpoint is not None:
                    checkpoint.save(
                        capture_fit_state(
                            self, train_loader, history, early_stopping,
                            epoch_next=epoch,
                            recoveries=(
                                guard.recoveries if guard is not None else 0
                            ),
                            stopped=stopped,
                        ),
                        force=stopped or epoch >= epochs,
                    )
            fit_span.set(
                epochs_run=history.epochs,
                recoveries=guard.recoveries if guard is not None else 0,
            )
        if early_stopping is not None:
            early_stopping.restore_best(self.model)
        return history

    def _observe_epoch(
        self, epoch_span, train_loss: float, val_loss: float | None
    ) -> None:
        """Export one finished epoch; its duration is the ``nn.epoch``
        span's."""
        if epoch_span is obs.NULL_SPAN:
            return  # observability was off when the epoch began
        metrics = obs.metrics()
        metrics.counter(
            "nn_epochs_total", "Training epochs completed", labels=("model",)
        ).labels(model=self.name).inc()
        metrics.histogram(
            "nn_epoch_seconds",
            "Wall-clock duration of one training epoch",
            labels=("model",),
        ).labels(model=self.name).observe(epoch_span.duration_s)
        metrics.gauge(
            "nn_train_loss", "Latest training loss", labels=("model",)
        ).labels(model=self.name).set(train_loss)
        if val_loss is not None:
            metrics.gauge(
                "nn_val_loss", "Latest validation loss", labels=("model",)
            ).labels(model=self.name).set(val_loss)
