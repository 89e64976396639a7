"""The Watcher component (§V-A).

Continuously samples the testbed's performance events into a bounded
:class:`MetricStore` and serves fixed-shape history windows to the
Predictor.  In the reproduction the "hardware" is the cluster engine;
:meth:`Watcher.observe` is called once per engine tick (1 Hz, the same
granularity as the paper's monitoring loop).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.cluster.engine import ClusterEngine
from repro.hardware.testbed import SystemPressure
from repro.telemetry.store import MetricStore

__all__ = ["Watcher"]


class Watcher:
    """Online performance-event monitor.

    Degrades gracefully under telemetry faults: samples carrying NaN
    values (dropped or corrupted counters) are imputed by carrying the
    last finite value of each metric forward, so the MetricStore — and
    everything reading windows from it (drift joins, live dashboards) —
    stays finite.  Imputations are counted per watcher and exported as
    ``telemetry_imputed_values_total``.
    """

    def __init__(self, history_capacity_s: float = 1024.0, dt: float = 1.0) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        capacity = int(round(history_capacity_s / dt))
        self.dt = dt
        self.store = MetricStore(capacity=capacity)
        #: Last fully-finite view of each metric (forward-fill source).
        self._last_good: np.ndarray | None = None
        #: Total metric values imputed by this watcher.
        self.imputed_values = 0

    def observe(self, time: float, row: np.ndarray) -> None:
        """Record one counter row, imputing any NaN gaps.

        ``row`` is only read: the store copies it into its ring, and a
        row without gaps stays the forward-fill source, so the caller
        must not write it afterwards (a trace row is final once its
        tick's hooks have run).
        """
        gaps = np.isnan(row)
        if gaps.any():
            fill = self._last_good
            if fill is None:
                fill = np.zeros_like(row)
            row = np.where(gaps, fill, row)
            n = int(gaps.sum())
            self.imputed_values += n
            if obs.enabled():
                obs.metrics().counter(
                    "telemetry_imputed_values_total",
                    "NaN counter values forward-filled by Watchers",
                ).inc(n)
        self._last_good = row
        self.store.push(time, row)

    def observe_pressure(
        self, engine: ClusterEngine, pressure: SystemPressure
    ) -> None:
        """Convenience: synthesize and record counters for a tick."""
        self.observe(engine.now, engine.testbed.sample_counters(pressure))

    def history(self, window_s: float) -> np.ndarray:
        """Trailing history window S as a ``(steps, n_metrics)`` matrix.

        This is the system-state feature vector of §V-B2 with
        r = ``window_s`` (120 s in the paper).
        """
        if window_s <= 0:
            raise ValueError("window must be positive")
        steps = int(round(window_s / self.dt))
        return self.store.last(steps)

    def horizon_mean(self, window_s: float) -> np.ndarray:
        """Realized mean metric vector over the trailing ``window_s``.

        The measurement counterpart of the system-state model's Ŝ: once
        a forecast's horizon has fully elapsed, the trailing horizon
        window covers exactly the interval the forecast predicted, and
        this mean is what the live drift detector joins it against.
        Unlike :meth:`history` this never zero-pads — a short warm-up
        store averages only the samples that exist.
        """
        if window_s <= 0:
            raise ValueError("window must be positive")
        return self.store.window_mean(int(round(window_s / self.dt)))

    def attach(self, engine: ClusterEngine) -> None:
        """Mirror every new engine trace sample into this Watcher.

        The first attach to an engine wraps its ``tick`` once with a
        shared dispatcher that notifies every registered watcher, so
        existing simulation drivers need no changes and the Watcher sees
        exactly what the trace records.  Attaching the same watcher
        again is a no-op (never double-records), any number of distinct
        watchers can observe one engine, and attaching after someone
        else has replaced ``engine.tick`` out from under the dispatcher
        raises instead of silently double-wrapping.
        """
        observers = getattr(engine, "_tick_observers", None)
        if observers is not None:
            if not getattr(engine.tick, "_is_tick_dispatcher", False):
                raise RuntimeError(
                    "engine.tick was re-wrapped after a Watcher attached; "
                    "refusing to attach (samples would double-record)"
                )
            if self in observers:
                return  # idempotent re-attach
            observers.append(self)
            return

        observers = [self]
        engine._tick_observers = observers
        original_tick = engine.tick

        def tick_and_observe():
            pressure = original_tick()
            # The engine just appended its sample; mirror the same values
            # rather than re-synthesizing (which would re-draw noise).
            # Read the raw row list: the ``metrics`` property re-stacks
            # the whole history (O(T) per tick).
            row = engine.trace._counter_rows[-1]
            for watcher in observers:
                watcher.observe(engine.now, row)
            return pressure

        tick_and_observe._is_tick_dispatcher = True
        engine.tick = tick_and_observe

    def detach(self, engine: ClusterEngine) -> None:
        """Stop observing ``engine``; safe to call when not attached."""
        observers = getattr(engine, "_tick_observers", None)
        if observers is not None and self in observers:
            observers.remove(self)
