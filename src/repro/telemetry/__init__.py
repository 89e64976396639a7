"""repro.telemetry — the event catalog of the Adrias Watcher (§V-A).

Defines the seven monitored performance events (LLC loads/misses, local
memory loads/stores, ThymesisFlow tx/rx flits and channel latency).  The
Watcher's samples themselves are the engine's trace: each tick appends
one counter row, and the Predictor reads its history windows from
:meth:`repro.cluster.trace.Trace.window`.
"""

from repro.telemetry.events import EVENTS, EventSpec, event_index, event_spec

__all__ = [
    "EVENTS",
    "EventSpec",
    "event_index",
    "event_spec",
]
