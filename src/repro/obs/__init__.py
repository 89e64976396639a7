"""``repro.obs`` — unified metrics, tracing and decision-audit layer.

Three collectors behind one on/off switch (default: off, zero-cost):

* :mod:`repro.obs.metrics` — labeled counters / gauges / histograms with
  JSON and Prometheus text exposition;
* :mod:`repro.obs.tracing` — nested spans exported as Chrome trace-event
  JSON (``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.audit` — orchestrator decision log with actual
  outcomes joined back via ``engine.on_finish``.

See :mod:`repro.obs.runtime` for the session/enable/dump lifecycle and
:mod:`repro.obs.report` for the ``python -m repro obs`` summaries.
"""

from repro.obs.audit import DecisionAuditLog, DecisionRecord, NullAuditLog
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.fsio import atomic_write_bytes, atomic_write_text
from repro.obs.runtime import (
    ARTIFACT_NAMES,
    JOURNEY_ARTIFACT_NAMES,
    ObsHandles,
    audit,
    disable,
    dump,
    enable,
    enable_live,
    enabled,
    live_session,
    metrics,
    reset,
    session,
    tracer,
)
from repro.obs.tracing import NULL_SPAN, NullTracer, Span, SpanTracer

__all__ = [
    # runtime
    "enabled",
    "enable",
    "disable",
    "reset",
    "metrics",
    "tracer",
    "audit",
    "live_session",
    "enable_live",
    "session",
    "dump",
    "ObsHandles",
    "ARTIFACT_NAMES",
    "JOURNEY_ARTIFACT_NAMES",
    "atomic_write_text",
    "atomic_write_bytes",
    # metrics
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    # tracing
    "SpanTracer",
    "NullTracer",
    "Span",
    "NULL_SPAN",
    # audit
    "DecisionAuditLog",
    "DecisionRecord",
    "NullAuditLog",
]
