"""System-state prediction model (§V-B2, Fig. 11a).

Forecasts the mean value of every monitored performance event over the
horizon window z, from the metric time series of the trailing history
window r.  Architecture per the paper: the input sequence is processed
by 2 LSTM layers, then a triplet of non-linear blocks (fully-connected
+ ReLU + batch normalization + dropout) produces the predicted system
state Ŝ.
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    Adam,
    BatchNorm1d,
    DataLoader,
    Dropout,
    EarlyStopping,
    Linear,
    MSELoss,
    Module,
    ReLU,
    Sequential,
    StackedLSTM,
    StandardScaler,
    TensorDataset,
    Trainer,
    r2_score,
)
from repro.nn.serialization import load_state, save_state
from repro.hardware.counters import METRIC_NAMES
from repro.models.features import FeatureConfig

__all__ = ["SystemStateModel", "SystemStatePredictor"]


def _dense_blocks(
    in_features: int,
    hidden: int,
    out_features: int,
    dropout: float,
    rng: np.random.Generator,
) -> Sequential:
    """The paper's triplet of non-linear blocks plus the output head."""
    return Sequential(
        Linear(in_features, hidden, rng=rng),
        ReLU(),
        BatchNorm1d(hidden),
        Dropout(dropout, rng=rng),
        Linear(hidden, hidden, rng=rng),
        ReLU(),
        BatchNorm1d(hidden),
        Dropout(dropout, rng=rng),
        Linear(hidden, hidden // 2, rng=rng),
        ReLU(),
        BatchNorm1d(hidden // 2),
        Dropout(dropout, rng=rng),
        Linear(hidden // 2, out_features, rng=rng),
    )


class SystemStateModel(Module):
    """2x recurrent layers -> 3 non-linear blocks -> linear head.

    ``cell`` selects the recurrent backbone: ``"lstm"`` (the paper's
    choice) or ``"gru"`` (the architecture ablation).
    """

    def __init__(
        self,
        n_metrics: int = len(METRIC_NAMES),
        lstm_hidden: int = 32,
        lstm_layers: int = 2,
        block_hidden: int = 64,
        dropout: float = 0.1,
        cell: str = "lstm",
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.n_metrics = n_metrics
        if cell == "lstm":
            encoder_cls = StackedLSTM
        elif cell == "gru":
            from repro.nn import StackedGRU

            encoder_cls = StackedGRU
        else:
            raise ValueError(f"unknown cell {cell!r}; choose 'lstm' or 'gru'")
        self.cell = cell
        self.encoder = encoder_cls(
            n_metrics, lstm_hidden, num_layers=lstm_layers,
            return_sequences=False, rng=rng,
        )
        self.head = _dense_blocks(lstm_hidden, block_hidden, n_metrics, dropout, rng)

    def forward(self, windows: np.ndarray) -> np.ndarray:
        """(N, T, n_metrics) history windows -> (N, n_metrics) Ŝ."""
        return self.head.forward(self.encoder.forward(windows))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.encoder.backward(self.head.backward(grad))


class SystemStatePredictor:
    """Training/inference wrapper owning the feature and target scalers."""

    def __init__(
        self,
        feature_config: FeatureConfig | None = None,
        lstm_hidden: int = 32,
        block_hidden: int = 64,
        dropout: float = 0.1,
        residual: bool = True,
        cell: str = "lstm",
        seed: int = 0,
    ) -> None:
        self.config = feature_config if feature_config is not None else FeatureConfig()
        self.model = SystemStateModel(
            n_metrics=self.config.n_metrics,
            lstm_hidden=lstm_hidden,
            block_hidden=block_hidden,
            dropout=dropout,
            cell=cell,
            seed=seed,
        )
        self.input_scaler = StandardScaler()
        self.target_scaler = StandardScaler()
        #: With the residual connection the network predicts the *change*
        #: of each metric relative to the history-window mean and the
        #: persistence component is added back at inference time.  The
        #: system metrics are strongly persistent (Fig. 8), so this
        #: focuses model capacity on the hard part of the forecast.
        self.residual = residual
        self.seed = seed
        self._trained = False

    def fit(
        self,
        windows: np.ndarray,
        targets: np.ndarray,
        epochs: int = 30,
        batch_size: int = 64,
        lr: float = 1e-3,
        val_fraction: float = 0.15,
        patience: int = 12,
        chaos=None,
        recovery=None,
        checkpoint=None,
        resume: bool = False,
    ) -> None:
        """Train on (N, T, M) windows and (N, M) horizon-mean targets.

        ``chaos``/``recovery``/``checkpoint``/``resume`` pass straight
        through to the resilient training runtime — see
        :meth:`repro.nn.Trainer.fit`.
        """
        windows = np.asarray(windows, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if windows.ndim != 3 or targets.ndim != 2:
            raise ValueError("expected (N, T, M) windows and (N, M) targets")
        if windows.shape[0] != targets.shape[0]:
            raise ValueError("windows and targets must align")
        if self.residual:
            targets = targets - windows.mean(axis=1)
        x = self.input_scaler.fit_transform(windows)
        y = self.target_scaler.fit_transform(targets)

        rng = np.random.default_rng(self.seed)
        n = x.shape[0]
        order = rng.permutation(n)
        n_val = max(1, int(n * val_fraction))
        val_idx, train_idx = order[:n_val], order[n_val:]
        train = TensorDataset(x[train_idx], y[train_idx])
        val = TensorDataset(x[val_idx], y[val_idx])

        trainer = Trainer(
            model=self.model,
            optimizer=Adam(self.model.parameters(), lr=lr),
            loss=MSELoss(),
            name="system_state",
            chaos=chaos,
        )
        trainer.fit(
            DataLoader(train, batch_size=batch_size, shuffle=True, rng=rng),
            DataLoader(val, batch_size=batch_size),
            epochs=epochs,
            early_stopping=EarlyStopping(patience=patience),
            checkpoint=checkpoint,
            resume=resume,
            recovery=recovery,
        )
        self._trained = True

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Predict Ŝ for (N, T, M) or a single (T, M) window."""
        if not self._trained:
            raise RuntimeError("predictor must be fit before predicting")
        windows = np.asarray(windows, dtype=np.float64)
        single = windows.ndim == 2
        if single:
            windows = windows[None, ...]
        if self.model.training:  # avoid the sub-tree walk on the hot path
            self.model.eval()
        pred = self.model.forward(self.input_scaler.transform(windows))
        out = self.target_scaler.inverse_transform(pred)
        if self.residual:
            out = out + windows.mean(axis=1)
        # Counter rates are physically non-negative.
        out = np.maximum(out, 0.0)
        return out[0] if single else out

    def evaluate(
        self, windows: np.ndarray, targets: np.ndarray
    ) -> dict[str, float]:
        """Per-metric R² scores plus the average (Table I)."""
        pred = self.predict(windows)
        targets = np.asarray(targets, dtype=np.float64)
        scores = {
            name: r2_score(targets[:, i], pred[:, i])
            for i, name in enumerate(METRIC_NAMES)
        }
        scores["average"] = float(np.mean(list(scores.values())))
        return scores

    # -- persistence --------------------------------------------------------
    def save(self, path) -> None:
        """Persist weights and scaler state to an ``.npz`` archive.

        The architecture hyper-parameters are not stored; loading
        requires constructing a predictor with the same configuration
        (mismatches fail loudly on shape checks).
        """
        if not self._trained:
            raise RuntimeError("cannot save an untrained predictor")
        state = self.model.state_dict()
        state["__input_mean"] = self.input_scaler.mean_
        state["__input_scale"] = self.input_scaler.scale_
        state["__target_mean"] = self.target_scaler.mean_
        state["__target_scale"] = self.target_scaler.scale_
        state["__residual"] = np.array([1.0 if self.residual else 0.0])
        save_state(state, path)

    def load(self, path) -> "SystemStatePredictor":
        """Restore a predictor saved by :meth:`save` (same architecture)."""
        state = load_state(path)
        self.input_scaler.mean_ = state.pop("__input_mean")
        self.input_scaler.scale_ = state.pop("__input_scale")
        self.target_scaler.mean_ = state.pop("__target_mean")
        self.target_scaler.scale_ = state.pop("__target_scale")
        self.residual = bool(state.pop("__residual")[0])
        self.model.load_state_dict(state)
        self._trained = True
        return self
