"""Lightweight interval-sampling profiler (statistical counterpart of
the deterministic phase accounting in :mod:`repro.obs.perf.accounting`).

A daemon thread samples the *simulation* thread's Python stack every
``interval_s`` via :func:`sys._current_frames` and attributes each
sample to the innermost frame that lives inside this package — so
engine/predictor hot-path cost shows up in the same stream as the
metrics it explains, without ``sys.setprofile`` overhead on the hot path
itself (the sampled thread pays nothing between samples).

Sampling is statistical: shares converge to wall-time shares as samples
accumulate.  The profiler never touches simulation state and is only
started by the live session, so disabled runs are bit-identical.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter

__all__ = ["IntervalProfiler"]

_PACKAGE_MARKER = f"{os.sep}repro{os.sep}"


class IntervalProfiler:
    """Periodic stack sampler aggregating per-function hit counts."""

    def __init__(
        self,
        interval_s: float = 0.02,
        target_ident: int | None = None,
        package_marker: str = _PACKAGE_MARKER,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self._target = (
            target_ident
            if target_ident is not None
            else threading.main_thread().ident
        )
        self._marker = package_marker
        self._samples: Counter[str] = Counter()
        self.total_samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="obs-live-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    # -- sampling ------------------------------------------------------------
    def sample_once(self) -> str | None:
        """Take one sample; returns the attributed function (or ``None``)."""
        frame = sys._current_frames().get(self._target)
        label = None
        while frame is not None:
            code = frame.f_code
            if self._marker in code.co_filename:
                stem = os.path.splitext(os.path.basename(code.co_filename))[0]
                label = f"{stem}.{code.co_name}"
                break
            frame = frame.f_back
        with self._lock:
            self.total_samples += 1
            if label is not None:
                self._samples[label] += 1
        return label

    # -- views ---------------------------------------------------------------
    def snapshot(self, top: int = 10) -> dict:
        """Top-N functions by samples plus coverage totals."""
        with self._lock:
            total = self.total_samples
            ranked = self._samples.most_common(top)
        return {
            "samples": total,
            "interval_s": self.interval_s,
            "top": [
                {
                    "fn": name,
                    "n": count,
                    "share": round(count / total, 4) if total else 0.0,
                }
                for name, count in ranked
            ],
        }
