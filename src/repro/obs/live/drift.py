"""Online predictor-drift detection (EWMA + Page–Hinkley).

Joins every Predictor forecast against the measurement that later
realizes it and watches the *relative* error stream for a sustained
upward shift — the operational signal behind the paper's "continuous
collection of representative application signatures and retraining is
crucial" observation (Fig. 15).

Two mechanisms run side by side per error stream:

* an **EWMA** of the absolute relative error — a smooth "how wrong are
  we lately" level, exported as a gauge and shown by ``repro obs
  watch``;
* a **Page–Hinkley test** (the sequential-CUSUM variant for mean
  increase): with error magnitudes :math:`x_t`, running mean
  :math:`\\bar x_t` and tolerance :math:`\\delta`, it accumulates
  :math:`m_t = \\sum_{i\\le t} (x_i - \\bar x_i - \\delta)` and alarms
  when :math:`m_t - \\min_{i\\le t} m_i > \\lambda`.  The statistic
  resets after each alarm, so a persistent degradation re-fires only
  after ``min_samples`` fresh observations.

Streams are keyed by the caller — the live session feeds ``be`` / ``lc``
performance-prediction errors (from the decision-audit join) and a
``system_state`` stream (Ŝ forecasts vs the realized horizon means of
the engine's trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.obs import runtime

__all__ = ["Ewma", "PageHinkley", "DriftDetector", "DriftAlarm"]


class Ewma:
    """Exponentially weighted moving average (bias-free start)."""

    __slots__ = ("alpha", "value", "n")

    def __init__(self, alpha: float = 0.2) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.value: float | None = None
        self.n = 0

    def update(self, x: float) -> float:
        self.n += 1
        if self.value is None:
            self.value = float(x)
        else:
            self.value += self.alpha * (float(x) - self.value)
        return self.value


class PageHinkley:
    """Page–Hinkley sequential change detector for an upward mean shift."""

    def __init__(
        self,
        delta: float = 0.1,
        threshold: float = 8.0,
        min_samples: int = 8,
    ) -> None:
        if delta < 0:
            raise ValueError("delta must be >= 0")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.delta = delta
        self.threshold = threshold
        self.min_samples = min_samples
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._cum = 0.0
        self._cum_min = 0.0

    @property
    def statistic(self) -> float:
        """Current CUSUM excursion ``m_t - min(m)`` (>= 0)."""
        return self._cum - self._cum_min

    @property
    def score(self) -> float:
        """Excursion normalized by the alarm threshold (alarm at >= 1)."""
        return self.statistic / self.threshold

    def update(self, x: float) -> bool:
        """Feed one observation; ``True`` when the alarm fires."""
        x = float(x)
        self.n += 1
        self.mean += (x - self.mean) / self.n
        self._cum += x - self.mean - self.delta
        self._cum_min = min(self._cum_min, self._cum)
        return self.n >= self.min_samples and self.statistic > self.threshold


@dataclass
class DriftAlarm:
    """One fired drift alarm."""

    stream: str
    sim_time: float
    clock: float
    score: float
    ewma_abs_error: float
    n_observations: int

    def to_dict(self) -> dict:
        return {
            "stream": self.stream,
            "sim": self.sim_time,
            "clock": self.clock,
            "score": self.score,
            "ewma": self.ewma_abs_error,
            "n": self.n_observations,
        }


class _StreamState:
    __slots__ = ("ewma", "ph", "n", "alarms")

    def __init__(self, alpha: float, delta: float, threshold: float,
                 min_samples: int) -> None:
        self.ewma = Ewma(alpha)
        self.ph = PageHinkley(delta, threshold, min_samples)
        self.n = 0
        self.alarms = 0


class DriftDetector:
    """Multi-stream drift tracker with alarm callbacks.

    ``on_alarm(alarm: DriftAlarm)`` is invoked synchronously when any
    stream's Page–Hinkley test fires — e.g. a retraining trigger built
    with :func:`repro.models.retraining.retrain_on_drift`.
    """

    def __init__(
        self,
        alpha: float = 0.2,
        delta: float = 0.1,
        threshold: float = 8.0,
        min_samples: int = 8,
        on_alarm: Callable[[DriftAlarm], None] | None = None,
    ) -> None:
        self._params = (alpha, delta, threshold, min_samples)
        self.on_alarm = on_alarm
        self._streams: dict[str, _StreamState] = {}
        self.alarms: list[DriftAlarm] = []

    def _stream(self, name: str) -> _StreamState:
        state = self._streams.get(name)
        if state is None:
            state = self._streams[name] = _StreamState(*self._params)
        return state

    def observe(
        self, stream: str, error: float, sim_time: float = 0.0,
        clock: float = 0.0,
    ) -> DriftAlarm | None:
        """Feed one (relative) forecast error; returns the alarm if fired.

        Non-finite errors are counted and dropped — a NaN forecast
        joined against a real measurement under fault injection, or a
        forecast whose realized window has a gap (a dropped or corrupted
        counter row, a crashed node's dead ticks).  A single poisoned
        observation would otherwise wedge the EWMA and Page–Hinkley
        statistics at NaN forever.
        """
        magnitude = abs(float(error))
        if magnitude != magnitude or magnitude == float("inf"):
            runtime.metrics().counter(
                "predictor_drift_dropped_observations_total",
                "Non-finite forecast errors dropped by the drift detector",
                labels=("stream",),
            ).labels(stream=stream).inc()
            return None
        state = self._stream(stream)
        state.n += 1
        ewma = state.ewma.update(magnitude)
        fired = state.ph.update(magnitude)
        metrics = runtime.metrics()
        metrics.gauge(
            "predictor_drift_score",
            "Page-Hinkley excursion / threshold per error stream "
            "(alarm at >= 1)",
            labels=("stream",),
        ).labels(stream=stream).set(state.ph.score)
        metrics.gauge(
            "predictor_drift_ewma_abs_error",
            "EWMA of the absolute relative forecast error",
            labels=("stream",),
        ).labels(stream=stream).set(ewma)
        if not fired:
            return None
        alarm = DriftAlarm(
            stream=stream,
            sim_time=sim_time,
            clock=clock,
            score=state.ph.score,
            ewma_abs_error=ewma,
            n_observations=state.n,
        )
        state.alarms += 1
        state.ph.reset()
        self.alarms.append(alarm)
        metrics.counter(
            "predictor_drift_alarms_total",
            "Fired Page-Hinkley drift alarms",
            labels=("stream",),
        ).labels(stream=stream).inc()
        runtime.tracer().instant(
            "drift_alarm", category="obs.live", **alarm.to_dict()
        )
        if self.on_alarm is not None:
            self.on_alarm(alarm)
        return alarm

    def score(self, stream: str) -> float:
        """Current normalized drift score of one stream (0 when unseen)."""
        state = self._streams.get(stream)
        return state.ph.score if state is not None else 0.0

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-stream state for the tick record / dashboard."""
        out = {}
        for name, state in sorted(self._streams.items()):
            out[name] = {
                "score": round(state.ph.score, 6),
                "ewma": round(state.ewma.value or 0.0, 6),
                "n": state.n,
                "alarms": state.alarms,
            }
        return out
