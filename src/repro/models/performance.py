"""Application performance prediction model (§V-B2, Fig. 11b).

Universal models: one for all BE applications (predicting execution
time) and one for all LC applications (predicting the 99th-percentile
response time).  Inputs per the paper:

* S — past system-state window, processed by 2 LSTM layers;
* k — application signature, processed by its own 2 LSTM layers;
* mode — local/remote deployment flag;
* Ŝ — (predicted) future system state.

The two LSTM outputs are concatenated with mode and Ŝ to form the
hidden representation, which a triplet of non-linear blocks maps to the
scalar performance prediction.  The Ŝ input is optional so the
stacked-model ablation of Fig. 13b ({None, None} variant) can disable
it.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.counters import METRIC_NAMES
from repro.models.features import FeatureConfig
from repro.models.system_state import _dense_blocks
from repro.nn import (
    Adam,
    DataLoader,
    EarlyStopping,
    MSELoss,
    Module,
    StackedLSTM,
    StandardScaler,
    TensorDataset,
    Trainer,
    mae,
    r2_score,
)
from repro.nn.serialization import load_state, save_state

__all__ = ["PerformanceModel", "PerformancePredictor"]


class PerformanceModel(Module):
    """Two LSTM encoders + concatenation + dense blocks -> scalar."""

    def __init__(
        self,
        n_metrics: int = len(METRIC_NAMES),
        lstm_hidden: int = 32,
        lstm_layers: int = 2,
        block_hidden: int = 64,
        dropout: float = 0.1,
        use_future: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.n_metrics = n_metrics
        self.use_future = use_future
        self.state_encoder = StackedLSTM(
            n_metrics, lstm_hidden, num_layers=lstm_layers,
            return_sequences=False, rng=rng,
        )
        self.signature_encoder = StackedLSTM(
            n_metrics, lstm_hidden, num_layers=lstm_layers,
            return_sequences=False, rng=rng,
        )
        hidden_width = 2 * lstm_hidden + 1 + (n_metrics if use_future else 0)
        self.head = _dense_blocks(hidden_width, block_hidden, 1, dropout, rng)
        self._lstm_hidden = lstm_hidden

    def forward(
        self,
        state: np.ndarray,
        signature: np.ndarray,
        mode: np.ndarray,
        future: np.ndarray | None = None,
    ) -> np.ndarray:
        """Predict performance.

        Parameters
        ----------
        state:
            (N, T_s, M) history windows S.
        signature:
            (N, T_k, M) application signatures k.
        mode:
            (N, 1) deployment-mode flags.
        future:
            (N, M) future system state Ŝ; required iff ``use_future``.
        """
        enc_s = self.state_encoder.forward(state)
        enc_k = self.signature_encoder.forward(signature)
        return self.score(enc_s, enc_k, mode, future)

    def score(
        self, enc_s: np.ndarray, enc_k: np.ndarray, mode: np.ndarray,
        future: np.ndarray | None = None,
    ) -> np.ndarray:
        """The head over encoded inputs, one output row per (N, 1) mode
        flag; a one-row ``enc_s``, ``enc_k`` or ``future`` serves all N."""
        if self.use_future and future is None:
            raise ValueError("model was built with use_future=True; Ŝ required")
        if not self.use_future and future is not None:
            raise ValueError("model was built with use_future=False")
        mode = np.asarray(mode, dtype=np.float64)
        if mode.ndim != 2 or mode.shape[1] != 1:
            raise ValueError("mode must have shape (N, 1)")
        parts = [enc_s, enc_k, mode]
        if self.use_future:
            parts.append(np.asarray(future, dtype=np.float64))
        rows = mode.shape[0]
        hidden = np.concatenate(
            [np.broadcast_to(p, (rows, p.shape[-1])) for p in parts], axis=1
        )
        return self.head.forward(hidden)

    def backward(self, grad: np.ndarray) -> None:
        """Backprop into both encoders; input gradients are discarded."""
        g_hidden = self.head.backward(grad)
        h = self._lstm_hidden
        self.state_encoder.backward(g_hidden[:, :h])
        self.signature_encoder.backward(g_hidden[:, h : 2 * h])
        return None


class PerformancePredictor:
    """Training/inference wrapper for one workload class (BE or LC).

    Owns the metric scaler (shared by S, k and Ŝ — they live in the
    same units) and the target scaler (log-space: runtimes and tail
    latencies are positive with multiplicative interference effects).
    """

    def __init__(
        self,
        feature_config: FeatureConfig | None = None,
        lstm_hidden: int = 32,
        block_hidden: int = 64,
        dropout: float = 0.1,
        use_future: bool = True,
        seed: int = 0,
    ) -> None:
        self.config = feature_config if feature_config is not None else FeatureConfig()
        self.use_future = use_future
        self.model = PerformanceModel(
            n_metrics=self.config.n_metrics,
            lstm_hidden=lstm_hidden,
            block_hidden=block_hidden,
            dropout=dropout,
            use_future=use_future,
            seed=seed,
        )
        self.metric_scaler = StandardScaler()
        self.target_scaler = StandardScaler()
        self.seed = seed
        self._trained = False
        # Scaled-signature bytes -> encoding; fit() and load() clear it.
        self._signature_encodings: dict[bytes, np.ndarray] = {}

    # -- helpers ----------------------------------------------------------
    def _scale_inputs(
        self,
        state: np.ndarray,
        signature: np.ndarray,
        future: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        s = self.metric_scaler.transform(state)
        k = self.metric_scaler.transform(signature)
        f = self.metric_scaler.transform(future) if future is not None else None
        return s, k, f

    @staticmethod
    def _log(y: np.ndarray) -> np.ndarray:
        if np.any(y <= 0):
            raise ValueError("performance targets must be positive")
        return np.log(y)

    def fit(
        self,
        state: np.ndarray,
        signature: np.ndarray,
        mode: np.ndarray,
        future: np.ndarray | None,
        targets: np.ndarray,
        epochs: int = 40,
        batch_size: int = 32,
        lr: float = 1e-3,
        val_fraction: float = 0.15,
        patience: int = 20,
        verbose: bool = False,
        chaos=None,
        recovery=None,
        checkpoint=None,
        resume: bool = False,
    ) -> None:
        """Fit the performance model.

        ``chaos``/``recovery``/``checkpoint``/``resume`` pass straight
        through to the resilient training runtime — see
        :meth:`repro.nn.Trainer.fit`.
        """
        state = np.asarray(state, dtype=np.float64)
        signature = np.asarray(signature, dtype=np.float64)
        mode = np.asarray(mode, dtype=np.float64).reshape(-1, 1)
        targets = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
        n = state.shape[0]
        if not (signature.shape[0] == mode.shape[0] == targets.shape[0] == n):
            raise ValueError("all inputs must share the first dimension")
        if self.use_future:
            if future is None:
                raise ValueError("use_future=True requires Ŝ inputs")
            future = np.asarray(future, dtype=np.float64)
        elif future is not None:
            raise ValueError("use_future=False forbids Ŝ inputs")

        # Fit the metric scaler on the union of all metric-space inputs.
        stacked = [state.reshape(-1, state.shape[-1]),
                   signature.reshape(-1, signature.shape[-1])]
        if future is not None:
            stacked.append(future)
        self.metric_scaler.fit(np.vstack(stacked))
        y = self.target_scaler.fit_transform(self._log(targets))
        s, k, f = self._scale_inputs(state, signature, future)

        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n)
        n_val = max(1, int(n * val_fraction))
        val_idx, train_idx = order[:n_val], order[n_val:]

        arrays = [s, k, mode] + ([f] if f is not None else []) + [y]
        train = TensorDataset(*(a[train_idx] for a in arrays))
        val = TensorDataset(*(a[val_idx] for a in arrays))

        self._signature_encodings.clear()
        trainer = Trainer(
            model=self.model,
            optimizer=Adam(self.model.parameters(), lr=lr),
            loss=MSELoss(),
            name="performance",
            chaos=chaos,
        )
        trainer.fit(
            DataLoader(train, batch_size=batch_size, shuffle=True, rng=rng),
            DataLoader(val, batch_size=batch_size),
            epochs=epochs,
            early_stopping=EarlyStopping(patience=patience),
            verbose=verbose,
            checkpoint=checkpoint,
            resume=resume,
            recovery=recovery,
        )
        self._trained = True

    def predict(
        self,
        state: np.ndarray,
        signature: np.ndarray,
        mode: np.ndarray,
        future: np.ndarray | None = None,
    ) -> np.ndarray | float:
        """Predicted performance in natural units, shape (N,).

        Batched ``(N, T, M)`` inputs run the full forward per row.  One
        ``(T, M)`` window, signature and Ŝ are encoded once (the
        signature from a cache) and scored for each flag in ``mode``;
        a single flag returns a float.
        """
        if not self._trained:
            raise RuntimeError("predictor must be fit before predicting")
        state = np.asarray(state, dtype=np.float64)
        mode = np.asarray(mode, dtype=np.float64).reshape(-1, 1)
        s, k, f = self._scale_inputs(state, np.asarray(signature), future)
        if self.model.training:  # avoid the sub-tree walk on the hot path
            self.model.eval()
        if state.ndim == 3:
            pred = self.model.forward(s, k, mode, f)
        else:
            enc_s = self.model.state_encoder.forward(s[None])
            pred = self.model.score(enc_s, self._encode_signature(k), mode, f)
        out = np.exp(self.target_scaler.inverse_transform(pred)).ravel()
        return float(out[0]) if state.ndim == 2 and out.size == 1 else out

    def _encode_signature(self, k: np.ndarray) -> np.ndarray:
        """The (1, H) encoding of one scaled signature, cached."""
        key = k.tobytes()
        encoding = self._signature_encodings.get(key)
        if encoding is None:
            encoding = self.model.signature_encoder.forward(k[None])
            self._signature_encodings[key] = encoding
        return encoding

    def evaluate(
        self,
        state: np.ndarray,
        signature: np.ndarray,
        mode: np.ndarray,
        future: np.ndarray | None,
        targets: np.ndarray,
    ) -> dict[str, float]:
        """Overall R² and MAE, plus per-mode R² (Fig. 13a)."""
        pred = self.predict(state, signature, mode, future)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        mode = np.asarray(mode, dtype=np.float64).ravel()
        result = {
            "r2": r2_score(targets, pred),
            "mae": mae(targets, pred),
        }
        for flag, label in ((0.0, "local"), (1.0, "remote")):
            mask = mode == flag
            if mask.sum() >= 2:
                result[f"r2_{label}"] = r2_score(targets[mask], pred[mask])
        return result

    # -- persistence --------------------------------------------------------
    def save(self, path) -> None:
        """Persist weights and scaler state to an ``.npz`` archive.

        The write is atomic and the archive versioned/digested — see
        :mod:`repro.nn.serialization`.
        """
        if not self._trained:
            raise RuntimeError("cannot save an untrained predictor")
        state = self.model.state_dict()
        state["__metric_mean"] = self.metric_scaler.mean_
        state["__metric_scale"] = self.metric_scaler.scale_
        state["__target_mean"] = self.target_scaler.mean_
        state["__target_scale"] = self.target_scaler.scale_
        save_state(state, path)

    def load(self, path) -> "PerformancePredictor":
        """Restore a predictor saved by :meth:`save` (same architecture)."""
        state = load_state(path)
        self.metric_scaler.mean_ = state.pop("__metric_mean")
        self.metric_scaler.scale_ = state.pop("__metric_scale")
        self.target_scaler.mean_ = state.pop("__target_mean")
        self.target_scaler.scale_ = state.pop("__target_scale")
        self.model.load_state_dict(state)
        self._signature_encodings.clear()
        self._trained = True
        return self
