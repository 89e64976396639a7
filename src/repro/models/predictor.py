"""The Predictor component (§V-B): online inference service.

Combines the system-state model and the two performance models (BE and
LC) behind the API the Orchestrator consumes:

* :meth:`Predictor.predict_system_state` — Ŝ from the Watcher's
  trailing window;
* :meth:`Predictor.predict_performance` — estimated execution time (BE)
  or p99 (LC) for a candidate deployment in a given memory mode, using
  the stacked-model pipeline: the system-state prediction Ŝ is
  propagated into the performance model (the {120, Ŝ} configuration
  that Fig. 13b identifies as the best practical approach).

The inference path is the cluster's decision critical path, so it is
built for throughput:

* :meth:`Predictor.predict_both_modes` encodes the window once and
  scores local and remote with the performance model's head, reusing
  the cached encoding of the application's signature;
* the sub-sampled window and Ŝ are memoized per distinct history
  window (content-keyed), so a tick with many candidate arrivals runs
  the system-state model once; :meth:`Predictor.attach` registers a
  :class:`~repro.cluster.engine.ClusterEngine` tick hook that
  invalidates the memo whenever simulated time advances.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import obs
from repro.models.features import FeatureConfig, encode_mode, impute_gaps, subsample
from repro.models.performance import PerformancePredictor
from repro.models.signatures import SignatureLibrary
from repro.models.system_state import SystemStatePredictor
from repro.obs.perf.accounting import accounting as perf_accounting
from repro.workloads.base import MemoryMode, WorkloadKind, WorkloadProfile

__all__ = ["Predictor"]


class Predictor:
    """Stacked-LSTM prediction service."""

    def __init__(
        self,
        system_state: SystemStatePredictor,
        be_performance: PerformancePredictor | None = None,
        lc_performance: PerformancePredictor | None = None,
        signatures: SignatureLibrary | None = None,
        feature_config: FeatureConfig | None = None,
    ) -> None:
        self.config = feature_config if feature_config is not None else FeatureConfig()
        self.system_state = system_state
        self.be_performance = be_performance
        self.lc_performance = lc_performance
        self.signatures = signatures if signatures is not None else SignatureLibrary(
            feature_config=self.config
        )
        # Per-tick inference memo: one slot keyed on the raw history
        # window's content, holding the sub-sampled window and (lazily)
        # the Ŝ computed from it.
        self._memo_key: tuple | None = None
        self._memo_window: np.ndarray | None = None
        self._memo_future: np.ndarray | None = None
        #: Inference-path fault hook (``before_inference`` /
        #: ``corrupt_output``), installed by a FaultInjector while a
        #: plan targets the predictor; ``None`` on the healthy path.
        self.chaos = None

    # -- signature management ------------------------------------------------
    def has_signature(self, profile: WorkloadProfile) -> bool:
        return profile.name in self.signatures

    def store_signature(self, name: str, rows: np.ndarray) -> None:
        """Record the counters captured during a first remote run (§V-C)."""
        self.signatures.add(name, rows)

    # -- per-tick memo -------------------------------------------------------
    def attach(self, engine) -> None:
        """Invalidate the inference memo on every tick of ``engine``.

        Idempotent; the AdriasPolicy calls this on each decision so the
        memo can never serve a stale Ŝ after simulated time advances.
        """
        engine.add_tick_hook(self._on_engine_tick)

    def detach(self, engine) -> None:
        """Stop tracking ``engine``; safe to call when not attached."""
        engine.remove_tick_hook(self._on_engine_tick)

    def _on_engine_tick(self, engine) -> None:
        self.invalidate_memo()

    def invalidate_memo(self) -> None:
        """Drop the memoized window/Ŝ (forces fresh forwards)."""
        self._memo_key = None
        self._memo_window = None
        self._memo_future = None

    @staticmethod
    def _window_key(history_raw: np.ndarray) -> tuple:
        digest = hashlib.blake2b(
            np.ascontiguousarray(history_raw).tobytes(), digest_size=16
        ).digest()
        return (history_raw.shape, digest)

    def _window(self, history_raw: np.ndarray) -> np.ndarray:
        """Sub-sampled history window, memoized per distinct raw window.

        NaN gaps (telemetry dropouts/corruption) are forward-filled
        before sub-sampling — the LSTMs require finite inputs.  The memo
        key is taken over the *raw* window, so two identical faulted
        windows still share one fill + forward.
        """
        key = self._window_key(history_raw)
        if key == self._memo_key and self._memo_window is not None:
            self._observe_memo_hit("window")
            return self._memo_window
        acct = perf_accounting()
        t0 = acct.clock() if acct is not None else 0.0
        self._memo_key = key
        filled, n_imputed = impute_gaps(history_raw)
        if n_imputed and obs.enabled():
            obs.metrics().counter(
                "predictor_imputed_values_total",
                "NaN history values forward-filled before inference",
            ).inc(n_imputed)
        self._memo_window = subsample(
            filled, self.config.sample_period_s, self.config.dt
        )
        self._memo_future = None
        if acct is not None:
            acct.lap("predictor.window", t0)
        return self._memo_window

    def _system_state(
        self, history_raw: np.ndarray, label: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """(window, Ŝ) for ``history_raw``, memoized alongside each other.

        ``label`` names the obs counter an *actual* forward is recorded
        under; memo hits increment ``predictor_memo_hits_total`` instead,
        so inference counters always equal true forward-pass counts.
        """
        window = self._window(history_raw)
        if self._memo_future is not None:
            self._observe_memo_hit("system_state")
            return window, self._memo_future
        acct = perf_accounting()
        t0 = acct.clock() if acct is not None else 0.0
        self._memo_future = self.system_state.predict(window)
        self._observe_inference(
            label,
            acct.lap("predictor.system_state", t0) - t0
            if acct is not None else None,
        )
        live = obs.live_session()
        if live is not None:
            live.note_state_forecast(self._memo_future, self.config.horizon_s)
        return window, self._memo_future

    # -- inference -------------------------------------------------------------
    def predict_system_state(self, history_raw: np.ndarray) -> np.ndarray:
        """Ŝ (mean metrics over the next horizon) from a raw 1 Hz window."""
        history_raw = np.asarray(history_raw, dtype=np.float64)
        return self._system_state(history_raw, label="system_state")[1].copy()

    def predict_performance(
        self,
        profile: WorkloadProfile,
        history_raw: np.ndarray,
        mode: MemoryMode,
        deadline_s: float | None = None,
    ) -> float:
        """Predicted performance of deploying ``profile`` in ``mode`` now.

        The ``mode`` entry of :meth:`predict_both_modes`.  Raises
        :class:`KeyError` when no signature exists — the caller (the
        Orchestrator) must then fall back to the capture-first policy of
        §V-C.  ``deadline_s`` is the caller's decision deadline: an
        installed chaos hook raises
        :class:`~repro.faults.errors.InferenceTimeout` when injected
        inference latency exceeds it.
        """
        return self.predict_both_modes(profile, history_raw, deadline_s)[mode]

    def predict_both_modes(
        self,
        profile: WorkloadProfile,
        history_raw: np.ndarray,
        deadline_s: float | None = None,
    ) -> dict[MemoryMode, float]:
        """Performance estimates for local and remote deployment.

        One :meth:`PerformancePredictor.predict` call encodes the window
        once and scores both mode flags; estimates agree with the batched
        ``(2, T, M)`` forward to rtol 1e-12, not bit for bit (BLAS blocks
        N=1 and N=2 GEMMs differently).  ``deadline_s`` behaves as in
        :meth:`predict_performance`.
        """
        model = self._model_for(profile.kind)
        if self.chaos is not None:
            self.chaos.before_inference(profile.kind.value, deadline_s)
        history_raw = np.asarray(history_raw, dtype=np.float64)
        signature = self.signatures.get(profile.name)
        modes = (MemoryMode.LOCAL, MemoryMode.REMOTE)
        # Ŝ is produced (and observed) before the performance-model
        # lap starts, so the forward's time excludes the nested
        # system-state forward.
        if model.use_future:
            window, future = self._system_state(
                history_raw, label="system_state_nested"
            )
        else:
            window, future = self._window(history_raw), None
        acct = perf_accounting()
        t0 = acct.clock() if acct is not None else 0.0
        flags = [encode_mode(m) for m in modes]
        estimates = model.predict(window, signature, flags, future)
        self._observe_inference(
            profile.kind.value,
            acct.lap("predictor.forward", t0) - t0 if acct is not None else None,
        )
        if self.chaos is not None:
            estimates = self.chaos.corrupt_output(profile.kind.value, estimates)
        return {m: float(estimates[i]) for i, m in enumerate(modes)}

    def _observe_memo_hit(self, entry: str) -> None:
        if not obs.enabled():
            return
        obs.metrics().counter(
            "predictor_memo_hits_total",
            "Inference-memo hits that skipped recomputation",
            labels=("entry",),
        ).labels(entry=entry).inc()

    def _observe_inference(
        self, model_name: str, elapsed_s: float | None
    ) -> None:
        """Count one forward; ``elapsed_s`` is its phase lap (``None``
        when phase accounting is off)."""
        if not obs.enabled():
            return
        metrics = obs.metrics()
        metrics.counter(
            "predictor_inferences_total",
            "Predictor forward passes",
            labels=("model",),
        ).labels(model=model_name).inc()
        if elapsed_s is not None:
            metrics.histogram(
                "predictor_inference_seconds",
                "Wall-clock latency of one inference call",
                labels=("model",),
            ).labels(model=model_name).observe(elapsed_s)

    def _model_for(self, kind: WorkloadKind) -> PerformancePredictor:
        if kind is WorkloadKind.BEST_EFFORT:
            model = self.be_performance
        elif kind is WorkloadKind.LATENCY_CRITICAL:
            model = self.lc_performance
        else:
            raise ValueError(f"no performance model for {kind}")
        if model is None:
            raise RuntimeError(f"no trained model for {kind.value} workloads")
        return model
