"""Resilient training runtime: crash-safe fit checkpoints + recovery.

This module hardens :meth:`repro.nn.Trainer.fit` (the engine under the
§V-C / Fig. 15 continual-retraining loop) against the two failure
classes that previously destroyed a run:

* **Crashes** — :class:`CheckpointManager` serializes the *complete*
  epoch-boundary fit state (model parameters and buffers, the
  optimizer's LR, moment buffers and step count, early-stopping
  bookkeeping incl. the best-weights snapshot, the loss history and
  every RNG the loop consumes — the DataLoader's shuffle generator and
  the model's dropout generators) to a single atomically-replaced file.
  A fit killed at any point and resumed from its checkpoint produces
  **bit-identical** final parameters and loss history to an
  uninterrupted fit; the regression tests pin this byte-for-byte.
* **Divergence** — :class:`DivergenceGuard` turns non-finite losses,
  NaN/inf parameters and loss-spike blowups from hard crashes into a
  bounded recovery loop: roll back to the last good checkpoint (or the
  pre-epoch snapshot when no checkpoint exists), scale the learning
  rate down, and retry — up to :attr:`RecoveryPolicy.max_recoveries`
  times before :class:`TrainingDivergedError` surfaces.

Checkpoint file format (version 1)::

    b"REPRO-FITCKPT/1\\n"            magic + format version
    <32 hex chars>b"\\n"             blake2b-128 digest of the payload
    <payload>                        npz archive (arrays + JSON meta)

The digest covers every payload byte, so truncated or bit-flipped
checkpoints always raise :class:`FitCheckpointError` — they can never
load silently.  Writes go through
:func:`repro.obs.fsio.atomic_write_bytes`, so the previous checkpoint
survives a crash (or an injected ``ckpt_write_fail`` fault) mid-write.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.obs.fsio import atomic_write_bytes

__all__ = [
    "CKPT_MAGIC",
    "FitCheckpointError",
    "CheckpointWriteError",
    "DivergenceError",
    "TrainingDivergedError",
    "RecoveryPolicy",
    "FitState",
    "capture_fit_state",
    "restore_fit_state",
    "encode_fit_state",
    "decode_fit_state",
    "CheckpointManager",
    "DivergenceGuard",
]

CKPT_MAGIC = b"REPRO-FITCKPT/1\n"
_META_KEY = "__meta__"


class FitCheckpointError(RuntimeError):
    """A fit checkpoint is missing, truncated, corrupt, or inconsistent
    with the trainer it is being restored into."""


class CheckpointWriteError(OSError):
    """A checkpoint write failed (organic I/O error or injected fault)."""


class DivergenceError(RuntimeError):
    """Training blew up: NaN/inf parameters or a loss spike."""


class TrainingDivergedError(RuntimeError):
    """Divergence persisted past the bounded recovery budget."""


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs for :class:`DivergenceGuard`.

    ``spike_factor`` compares each epoch's training loss against the
    median of the trailing ``spike_window`` epochs; ``None`` disables
    spike detection (non-finite losses and parameters are always
    caught).
    """

    max_recoveries: int = 3
    lr_factor: float = 0.5
    min_lr: float = 1e-7
    spike_factor: float | None = 50.0
    spike_window: int = 5

    def __post_init__(self) -> None:
        if self.max_recoveries < 1:
            raise ValueError("max_recoveries must be >= 1")
        if not 0.0 < self.lr_factor < 1.0:
            raise ValueError("lr_factor must be in (0, 1)")
        if self.spike_factor is not None and self.spike_factor <= 1.0:
            raise ValueError("spike_factor must exceed 1")
        if self.spike_window < 1:
            raise ValueError("spike_window must be >= 1")


@dataclass
class FitState:
    """Complete epoch-boundary snapshot of a ``Trainer.fit`` in flight."""

    epoch_next: int
    model: dict[str, np.ndarray]
    optimizer: dict
    early_stopping: dict | None
    history_train: list[float]
    history_val: list[float]
    #: ``bit_generator.state`` dicts for every generator the loop
    #: consumes, in :func:`_generators` order.
    rngs: list[dict]
    recoveries: int = 0
    stopped: bool = False


def _generators(model, train_loader) -> list[np.random.Generator]:
    """Every RNG the fit loop draws from, deduplicated, in stable order.

    The DataLoader's shuffle generator comes first, then each module's
    ``rng`` attribute in sub-tree traversal order.  Modules routinely
    share one generator (``_dense_blocks`` passes the same ``rng`` into
    every Dropout), so duplicates are dropped by identity.
    """
    gens: list[np.random.Generator] = []
    seen: set[int] = set()

    def add(gen) -> None:
        if isinstance(gen, np.random.Generator) and id(gen) not in seen:
            seen.add(id(gen))
            gens.append(gen)

    if train_loader is not None:
        add(getattr(train_loader, "rng", None))
    for module in model.modules():
        add(getattr(module, "rng", None))
    return gens


def capture_fit_state(
    trainer,
    train_loader,
    history,
    early_stopping,
    *,
    epoch_next: int,
    recoveries: int = 0,
    stopped: bool = False,
) -> FitState:
    """Deep-copy everything :func:`restore_fit_state` needs."""
    return FitState(
        epoch_next=epoch_next,
        model=trainer.model.state_dict(),
        optimizer=trainer.optimizer.state_dict(),
        early_stopping=(
            early_stopping.state_dict() if early_stopping is not None else None
        ),
        history_train=list(history.train_loss),
        history_val=list(history.val_loss),
        rngs=[
            json.loads(json.dumps(g.bit_generator.state))
            for g in _generators(trainer.model, train_loader)
        ],
        recoveries=recoveries,
        stopped=stopped,
    )


def restore_fit_state(trainer, train_loader, history, early_stopping,
                      state: FitState) -> None:
    """Rewind a trainer (and its companions) to ``state``, in place."""
    trainer.model.load_state_dict(state.model)
    trainer.optimizer.load_state_dict(state.optimizer)
    if (early_stopping is None) != (state.early_stopping is None):
        raise FitCheckpointError(
            "checkpoint/trainer early-stopping mismatch: one tracks early "
            "stopping, the other does not"
        )
    if early_stopping is not None:
        early_stopping.load_state_dict(state.early_stopping)
    history.train_loss[:] = list(state.history_train)
    history.val_loss[:] = list(state.history_val)
    gens = _generators(trainer.model, train_loader)
    if len(gens) != len(state.rngs):
        raise FitCheckpointError(
            f"checkpoint holds {len(state.rngs)} RNG states, the trainer "
            f"exposes {len(gens)} generators"
        )
    for gen, rng_state in zip(gens, state.rngs):
        try:
            gen.bit_generator.state = rng_state
        except (KeyError, TypeError, ValueError) as error:
            raise FitCheckpointError(
                f"incompatible RNG state in checkpoint: {error}"
            ) from error


# -- wire format --------------------------------------------------------------

def encode_fit_state(state: FitState) -> bytes:
    """Serialize a :class:`FitState` into the digested checkpoint format."""
    arrays: dict[str, np.ndarray] = {}
    for key, value in state.model.items():
        arrays[f"model/{key}"] = np.asarray(value)
    slot_shapes: dict[str, int] = {}
    for slot, slot_arrays in state.optimizer.get("slots", {}).items():
        slot_shapes[slot] = len(slot_arrays)
        for i, value in enumerate(slot_arrays):
            arrays[f"opt/{slot}/{i}"] = np.asarray(value)
    es_meta = None
    if state.early_stopping is not None:
        es_meta = {
            k: v for k, v in state.early_stopping.items() if k != "best_state"
        }
        best_state = state.early_stopping.get("best_state")
        es_meta["has_best_state"] = best_state is not None
        if best_state is not None:
            for key, value in best_state.items():
                arrays[f"es/{key}"] = np.asarray(value)
    meta = {
        "version": 1,
        "epoch_next": state.epoch_next,
        "model_keys": sorted(state.model),
        "optimizer": {
            "lr": state.optimizer["lr"],
            "extra": state.optimizer.get("extra", {}),
            "slots": slot_shapes,
        },
        "early_stopping": es_meta,
        "history_train": state.history_train,
        "history_val": state.history_val,
        "rngs": state.rngs,
        "recoveries": state.recoveries,
        "stopped": state.stopped,
    }
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    return CKPT_MAGIC + digest.encode("ascii") + b"\n" + payload


def decode_fit_state(blob: bytes) -> FitState:
    """Parse + verify checkpoint bytes; any corruption raises."""
    if not blob.startswith(CKPT_MAGIC):
        raise FitCheckpointError(
            "not a fit checkpoint (bad magic; wrong file or truncated header)"
        )
    rest = blob[len(CKPT_MAGIC):]
    newline = rest.find(b"\n")
    if newline < 0:
        raise FitCheckpointError("truncated fit checkpoint (no digest line)")
    digest, payload = rest[:newline], rest[newline + 1:]
    actual = hashlib.blake2b(payload, digest_size=16).hexdigest()
    if digest.decode("ascii", errors="replace") != actual:
        raise FitCheckpointError(
            "corrupt fit checkpoint (payload digest mismatch)"
        )
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays.pop(_META_KEY)).decode("utf-8"))
    except Exception as error:  # digest passed yet payload unreadable
        raise FitCheckpointError(
            f"unreadable fit checkpoint payload: {error}"
        ) from error
    if meta.get("version") != 1:
        raise FitCheckpointError(
            f"unsupported fit-checkpoint version {meta.get('version')!r}"
        )
    model = {
        key: arrays[f"model/{key}"] for key in meta["model_keys"]
    }
    optimizer = {
        "lr": meta["optimizer"]["lr"],
        "extra": meta["optimizer"]["extra"],
        "slots": {
            slot: [arrays[f"opt/{slot}/{i}"] for i in range(count)]
            for slot, count in meta["optimizer"]["slots"].items()
        },
    }
    es_meta = meta["early_stopping"]
    early_stopping = None
    if es_meta is not None:
        early_stopping = {
            k: v for k, v in es_meta.items() if k != "has_best_state"
        }
        early_stopping["best_state"] = (
            {
                key[len("es/"):]: value
                for key, value in arrays.items()
                if key.startswith("es/")
            }
            if es_meta["has_best_state"] else None
        )
    return FitState(
        epoch_next=int(meta["epoch_next"]),
        model=model,
        optimizer=optimizer,
        early_stopping=early_stopping,
        history_train=[float(x) for x in meta["history_train"]],
        history_val=[float(x) for x in meta["history_val"]],
        rngs=meta["rngs"],
        recoveries=int(meta["recoveries"]),
        stopped=bool(meta["stopped"]),
    )


# -- checkpoint manager -------------------------------------------------------

class CheckpointManager:
    """Epoch-granular checkpoint writer/reader for one fit.

    ``interval`` saves every N-th epoch boundary (the final state is
    always saved); ``chaos`` is an optional trainer-fault hook
    (:class:`repro.faults.training.TrainingChaos`) whose injected
    ``ckpt_write_fail`` windows exercise the degraded path: a failed
    write is counted and *skipped* — the previous checkpoint survives
    and training continues.
    """

    def __init__(self, path, interval: int = 1, chaos=None,
                 name: str = "model") -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.path = Path(path)
        self.interval = interval
        self.chaos = chaos
        self.name = name
        self.saves = 0
        self.write_failures = 0

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, state: FitState, *, force: bool = False) -> bool:
        """Atomically persist ``state``; returns False on skip/failure."""
        if not force and state.epoch_next % self.interval != 0:
            return False
        try:
            if self.chaos is not None:
                self.chaos.checkpoint_write(state.epoch_next)
            atomic_write_bytes(self.path, encode_fit_state(state))
        except OSError as error:  # CheckpointWriteError is an OSError
            self.write_failures += 1
            if obs.enabled():
                obs.metrics().counter(
                    "nn_checkpoint_write_failures_total",
                    "Fit-checkpoint writes that failed (previous kept)",
                    labels=("model",),
                ).labels(model=self.name).inc()
                obs.tracer().instant(
                    "nn.checkpoint_write_failed", category="nn.resilience",
                    model=self.name, epoch_next=state.epoch_next,
                    error=str(error),
                )
            return False
        self.saves += 1
        if obs.enabled():
            obs.metrics().counter(
                "nn_checkpoints_saved_total",
                "Fit checkpoints successfully written",
                labels=("model",),
            ).labels(model=self.name).inc()
        return True

    def load(self) -> FitState:
        """Read + verify the checkpoint; raises if missing or corrupt."""
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            raise FitCheckpointError(
                f"no fit checkpoint at {self.path}"
            ) from None
        return decode_fit_state(blob)

    def try_load(self) -> FitState | None:
        """The checkpoint, or ``None`` when the file does not exist.

        A file that exists but fails verification still raises — a
        corrupt checkpoint must never be silently ignored.
        """
        if not self.exists():
            return None
        return self.load()


# -- divergence guard ---------------------------------------------------------

class DivergenceGuard:
    """Rollback + LR-reduction recovery loop around ``Trainer.fit``."""

    def __init__(self, policy: RecoveryPolicy, name: str = "model") -> None:
        self.policy = policy
        self.name = name
        self.recoveries = 0

    def check(self, model, train_loss: float, history) -> None:
        """Raise :class:`DivergenceError` on blown-up parameters/losses.

        Called after a successful epoch (non-finite *losses* inside the
        epoch already raise in ``train_epoch``); catches NaN/inf that
        reached the parameters on the final batches and loss spikes.
        """
        policy = self.policy
        for param in model.parameters():
            if not np.all(np.isfinite(param.value)):
                raise DivergenceError(
                    f"non-finite values in parameter {param.name!r}"
                )
        if policy.spike_factor is not None and history.train_loss:
            recent = history.train_loss[-policy.spike_window:]
            reference = float(np.median(recent))
            if reference > 0.0 and train_loss > policy.spike_factor * reference:
                raise DivergenceError(
                    f"training-loss spike: {train_loss:.4g} exceeds "
                    f"{policy.spike_factor:g}x the trailing median "
                    f"{reference:.4g}"
                )

    def recover(
        self,
        trainer,
        train_loader,
        history,
        early_stopping,
        checkpoint: CheckpointManager | None,
        snapshot: FitState | None,
        error: Exception,
        epoch: int,
    ) -> int:
        """Roll back, reduce the LR, and return the epoch to retry.

        Prefers the last on-disk checkpoint (survives multi-epoch
        damage); falls back to the caller's pre-epoch snapshot.  Raises
        :class:`TrainingDivergedError` once the budget is exhausted.
        """
        self.recoveries += 1
        if self.recoveries > self.policy.max_recoveries:
            raise TrainingDivergedError(
                f"training diverged {self.recoveries} times "
                f"(budget {self.policy.max_recoveries}); last cause: {error}"
            ) from error
        candidates = [snapshot] if snapshot is not None else []
        if checkpoint is not None:
            try:
                loaded = checkpoint.try_load()
            except FitCheckpointError:
                loaded = None  # fall back to the in-memory snapshot
            if loaded is not None:
                candidates.append(loaded)
        # Prefer whichever good state lost the fewest epochs.
        state = max(candidates, key=lambda s: s.epoch_next, default=None)
        restored_epoch = epoch
        if state is not None:
            restore_fit_state(trainer, train_loader, history, early_stopping,
                              state)
            restored_epoch = state.epoch_next
        new_lr = max(trainer.optimizer.lr * self.policy.lr_factor,
                     self.policy.min_lr)
        trainer.optimizer.lr = new_lr
        if obs.enabled():
            obs.metrics().counter(
                "nn_divergence_recoveries_total",
                "Divergence recoveries (rollback + LR reduction)",
                labels=("model", "cause"),
            ).labels(model=self.name, cause=type(error).__name__).inc()
            obs.tracer().instant(
                "nn.divergence_recovery", category="nn.resilience",
                model=self.name, epoch=epoch, cause=type(error).__name__,
                detail=str(error), lr=new_lr, recovery=self.recoveries,
            )
        live = obs.live_session()
        if live is not None:
            live.note_event(
                "training", model=self.name, phase="recovery", epoch=epoch,
                cause=type(error).__name__, lr=new_lr,
            )
        return restored_epoch
