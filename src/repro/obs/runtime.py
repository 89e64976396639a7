"""Global observability runtime: enable/disable, accessors, artifact dump.

The instrumented hot paths (engine tick, link resolve, trainer epochs,
predictor inference, policy decisions) all reach observability through
three module-level accessors — :func:`metrics`, :func:`tracer`,
:func:`audit` — which return no-op singletons until :func:`enable` is
called.  Disabled is the default, so simulation results and benchmark
numbers are bit-identical to an uninstrumented build: the instruments
never touch any RNG and the null objects absorb every call.

:func:`enable` also switches on phase accounting
(:mod:`repro.obs.perf.accounting`): its laps are the one timer of the
hot paths, and the timing histograms observe their intervals.

Typical usage::

    from repro import obs

    with obs.session() as handles:
        run_experiment()
        obs.dump("out/")          # metrics.json/.prom, trace.json,
                                  # decisions.jsonl

or, from the CLI, ``python -m repro run fig16 --obs-out out/``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.obs.audit import NULL_AUDIT, DecisionAuditLog, NullAuditLog
from repro.obs.fsio import atomic_write_text
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.obs.perf.accounting import accounting, disable_phases, enable_phases
from repro.obs.tracing import NULL_TRACER, NullTracer, SpanTracer

if TYPE_CHECKING:  # pragma: no cover - the live layer imports lazily
    from repro.obs.live.session import LiveSession

__all__ = [
    "ObsHandles",
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
    "ARTIFACT_NAMES",
    "JOURNEY_ARTIFACT_NAMES",
]

#: Files written by :func:`dump`, in a stable order.
ARTIFACT_NAMES = (
    "metrics.json",
    "metrics.prom",
    "trace.json",
    "decisions.jsonl",
)

#: Extra artifacts written only when a fleet run recorded journeys.
JOURNEY_ARTIFACT_NAMES = (
    "journeys.jsonl",
    "journeys_trace.json",
)


def _active_journal():
    """The fleet journey journal, if the fleet obs layer was ever used.

    Guarded on ``sys.modules`` so single-node runs never import the
    fleet package just to discover there is nothing to dump.
    """
    import sys

    module = sys.modules.get("repro.obs.fleet.journey")
    if module is None:
        return None
    return module.active_journal()


@dataclass
class ObsHandles:
    """The three live collectors while a session is enabled."""

    metrics: MetricsRegistry
    tracer: SpanTracer
    audit: DecisionAuditLog


_enabled: bool = False
_metrics: MetricsRegistry | NullRegistry = NULL_REGISTRY
_tracer: SpanTracer | NullTracer = NULL_TRACER
_audit: DecisionAuditLog | NullAuditLog = NULL_AUDIT
_live: "LiveSession | None" = None
#: Whether :func:`enable` switched phase accounting on (and so
#: :func:`disable` switches it off again).
_owns_phases: bool = False


def enabled() -> bool:
    """Whether observability collection is currently on."""
    return _enabled


def metrics() -> MetricsRegistry | NullRegistry:
    return _metrics


def tracer() -> SpanTracer | NullTracer:
    return _tracer


def audit() -> DecisionAuditLog | NullAuditLog:
    return _audit


def live_session() -> "LiveSession | None":
    """The active live-streaming session, or ``None``.

    Integration points (engine construction, predictor forecasts,
    policy decisions) gate on this returning non-``None`` — a single
    attribute read on the disabled path.  (Named ``live_session`` rather
    than ``live`` so the accessor cannot be shadowed by the
    :mod:`repro.obs.live` subpackage binding on import.)
    """
    return _live


def enable_live(out_dir: str | Path, **kwargs) -> "LiveSession":
    """Start streaming telemetry to ``out_dir`` (idempotent).

    Implies :func:`enable` — the live layer reads the shared metrics
    registry and audit log.  Keyword arguments are forwarded to
    :class:`repro.obs.live.session.LiveSession` (SLO targets, drift
    thresholds, ...).  The session is torn down by :func:`disable`.
    """
    global _live
    enable()
    if _live is None:
        from repro.obs.live.session import LiveSession

        _live = LiveSession(out_dir, **kwargs)
    return _live


def enable() -> ObsHandles:
    """Switch on collection and phase accounting (idempotent); returns
    the live handles.

    Phase accounting already on (a :func:`~repro.obs.perf.phases_session`
    opened first) is shared, and left on by :func:`disable`.
    """
    global _enabled, _metrics, _tracer, _audit, _owns_phases
    if not _enabled:
        _metrics = MetricsRegistry()
        _tracer = SpanTracer()
        _audit = DecisionAuditLog()
        _owns_phases = accounting() is None
        enable_phases()
        _enabled = True
    assert isinstance(_metrics, MetricsRegistry)
    assert isinstance(_tracer, SpanTracer)
    assert isinstance(_audit, DecisionAuditLog)
    return ObsHandles(metrics=_metrics, tracer=_tracer, audit=_audit)


def disable() -> None:
    """Switch collection off and drop the collectors.

    An active live session is closed first (final flush + ``end``
    record), so its stream is complete on disk.  Phase accounting goes
    off only if :func:`enable` switched it on.
    """
    global _enabled, _metrics, _tracer, _audit, _live, _owns_phases
    if _live is not None:
        _live.close()
        _live = None
    if _owns_phases:
        disable_phases()
        _owns_phases = False
    _enabled = False
    _metrics = NULL_REGISTRY
    _tracer = NULL_TRACER
    _audit = NULL_AUDIT
    journal = _active_journal()
    if journal is not None:
        import repro.obs.fleet.journey as _journey

        _journey.reset_journal()


def reset() -> None:
    """Clear collected data without toggling the enabled state."""
    _metrics.reset()
    _tracer.reset()
    _audit.reset()
    acct = accounting()
    if _owns_phases and acct is not None:
        acct.reset()
    journal = _active_journal()
    if journal is not None:
        journal.reset()


@contextmanager
def session() -> Iterator[ObsHandles]:
    """Enable observability for a ``with`` block, restoring state after.

    If a session is already active it is left untouched (nested sessions
    share the outer collectors).
    """
    was_enabled = _enabled
    handles = enable()
    try:
        yield handles
    finally:
        if not was_enabled:
            disable()


def dump(out_dir: str | Path) -> dict[str, Path]:
    """Write every artifact of the current session to ``out_dir``.

    Produces ``metrics.json`` (structured snapshot), ``metrics.prom``
    (Prometheus text exposition), ``trace.json`` (Chrome trace-event
    JSON, loadable in Perfetto) and ``decisions.jsonl`` (one decision
    per line, outcomes joined).  Returns ``{artifact name: path}``.

    Each artifact is written atomically (same-directory temp file +
    ``os.replace``), so a crash mid-dump leaves either the previous
    complete artifact or the new one — never a truncated file.  When a
    live session is active its stream is flushed first and its artifact
    paths are included in the returned mapping.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if _live is not None:
        _live.flush()
    contents = {
        "metrics.json": _metrics.to_json(),
        "metrics.prom": _metrics.to_prometheus(),
        "trace.json": _tracer.to_json(),
        "decisions.jsonl": _audit.to_jsonl(),
    }
    journal = _active_journal()
    if journal is not None and len(journal):
        import json

        # Fleet runs only: journey JSONL + Chrome-trace spans (nodes as
        # trace threads).  Absent from single-node dumps by design.
        contents["journeys.jsonl"] = journal.to_jsonl()
        contents["journeys_trace.json"] = json.dumps(
            journal.to_chrome_trace(), indent=1
        )
    paths = {}
    for name in (*ARTIFACT_NAMES, *JOURNEY_ARTIFACT_NAMES):
        if name not in contents:
            continue
        path = out / name
        atomic_write_text(path, contents[name])
        paths[name] = path
    if _live is not None:
        paths.update(_live.artifact_paths())
    return paths
