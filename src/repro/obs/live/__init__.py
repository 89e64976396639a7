"""``repro.obs.live`` — streaming telemetry over the base obs runtime.

Four cooperating pieces:

* :mod:`repro.obs.live.stream` — append-only JSONL exporter with bounded
  buffering and atomic OpenMetrics snapshots;
* :mod:`repro.obs.live.drift` — online predictor-drift detection (EWMA
  rolling error + Page–Hinkley alarm) over forecast/outcome joins;
* :mod:`repro.obs.live.slo` — multi-window SLO burn-rate engine over the
  Fig. 17 ``qos_p99_ms`` thresholds;
* :mod:`repro.obs.live.watch` — the ``repro obs watch`` terminal
  dashboard tailing the stream,

coordinated by :class:`repro.obs.live.session.LiveSession` (created via
:func:`repro.obs.enable_live`), which also streams the phase-accounting
table of :mod:`repro.obs.perf.accounting` (hot-path cost).  Everything
honours the obs layer's contract: without an enabled live session the
simulation is bit-identical.
"""

from repro.obs.live.drift import DriftAlarm, DriftDetector, Ewma, PageHinkley
from repro.obs.live.session import STREAM_VERSION, LiveSession
from repro.obs.live.slo import SloEngine, peak_burn_rate
from repro.obs.live.stream import StreamExporter
from repro.obs.live.watch import read_stream, render_frame, watch

__all__ = [
    "LiveSession",
    "STREAM_VERSION",
    "StreamExporter",
    "DriftDetector",
    "DriftAlarm",
    "Ewma",
    "PageHinkley",
    "SloEngine",
    "peak_burn_rate",
    "read_stream",
    "render_frame",
    "watch",
]
