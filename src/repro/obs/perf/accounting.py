"""Phase-level performance accounting for the simulation hot paths.

A :class:`PhaseAccounting` object accumulates wall time and call counts
per named phase — ``engine.arbitration``, ``predictor.forward``,
``policy.decide``, ... — so a tick's cost is attributable to the step
that spent it.  The instrumented call sites (engine and fleet ticks,
predictor window/Ŝ/forward, policy decide) reach it through the module-level
:func:`accounting` accessor, which returns ``None`` until
:func:`enable_phases` is called:

* **disabled** (the default) every call site pays one function call and
  one ``is not None`` test — no clock reads, no allocations, no RNG
  access — so seeded runs are bit-identical to an uninstrumented build;
* **enabled** the engine tick records its sub-phases as *contiguous
  laps* (each lap starts where the previous one ended), so the per-tick
  phase totals sum exactly to the recorded tick total.  A lap around
  work that itself records laps (``policy.decide`` around the predictor,
  ``fleet.health`` around failover placements) records only its own
  time, so every second lands in exactly one leaf phase.

The laps are the only timer on these paths: :func:`repro.obs.enable`
switches phase accounting on, and the ``engine_tick_seconds`` and
``predictor_inference_seconds`` histograms observe the lap intervals.
When a :class:`~repro.obs.tracing.SpanTracer` is attached, every lap is
additionally forwarded as a Chrome-trace complete event, producing a
per-phase timeline loadable in ``chrome://tracing`` / Perfetto.

Typical usage::

    from repro.obs import perf

    with perf.phases_session() as acct:
        run_scenario(...)
    print(acct.table())
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.obs.tracing import SpanTracer

__all__ = [
    "PhaseAccounting",
    "accounting",
    "enable_phases",
    "disable_phases",
    "phases_session",
    "is_envelope",
    "phase_table",
    "PHASE_NAMES",
]

#: Canonical phase names recorded by the instrumented call sites.
#: Fleet engines additionally record a dynamic ``engine.tick[nX]``
#: envelope per node (same total as ``engine.tick``, attributed to the
#: node label) so rack runs can rank nodes by simulation cost.
PHASE_NAMES = (
    "engine.tick",          # whole-tick total (sum of the engine.* laps)
    "engine.retry_queue",   # outage retry-queue drain
    "engine.arbitration",   # link/capacity contention resolution
    "engine.advance",       # per-deployment progress under pressure
    "engine.telemetry",     # perf-counter sampling into the trace
    "engine.tick_hooks",    # fault injector / memo / live-obs hooks
    "engine.obs_export",    # metrics-registry export block
    "predictor.window",     # feature/window build (impute + subsample)
    "predictor.system_state",  # Ŝ computation (system-state forward)
    "predictor.forward",    # performance-model forward
    "policy.decide",        # placement decision, less its predictor laps
    "fleet.health",         # heartbeats + failover, less its placements
    "fleet.arbitration",    # rack-pool bandwidth water-fill
)


def is_envelope(name: str) -> bool:
    """Whether ``name`` is a whole-tick envelope rather than a leaf.

    ``engine.tick`` and the per-node ``engine.tick[nX]`` totals contain
    the ``engine.*`` laps, so they are not a cost of their own.
    """
    return name == "engine.tick" or name.startswith("engine.tick[")


def phase_table(
    phases: dict[str, dict[str, float]], top: int | None = None
) -> str:
    """Ranked (by total time) table of a :meth:`PhaseAccounting.snapshot`.

    Shares are of the leaf total; envelopes show a zero share.  Serves
    ``repro obs profile``, the bench report and the ``repro obs watch``
    panel alike.
    """
    rows = sorted(phases.items(), key=lambda item: -item[1]["total_s"])
    leaf_total = sum(
        entry["total_s"] for name, entry in rows if not is_envelope(name)
    )
    if top is not None:
        rows = rows[:top]
    lines = [
        f"{'phase':<24} {'total':>10} {'calls':>10} {'mean':>10} {'share':>7}"
    ]
    for name, entry in rows:
        total, calls = entry["total_s"], int(entry["calls"])
        share = (
            total / leaf_total if leaf_total and not is_envelope(name) else 0.0
        )
        mean_us = total / calls * 1e6 if calls else 0.0
        lines.append(
            f"{name:<24} {total * 1e3:>8.2f}ms {calls:>10d} "
            f"{mean_us:>8.1f}us {share:>6.1%}"
        )
    return "\n".join(lines)


class PhaseAccounting:
    """Per-phase wall-time + call-count accumulators.

    The hot-path API is :meth:`lap`: ``t = acct.lap(name, t)`` records
    ``now - t`` against ``name`` and returns ``now``, so consecutive
    laps tile an interval with one clock read per boundary.  A lap
    around work that records laps of its own passes ``nested``, the
    growth of :attr:`recorded` over the interval::

        t0, inner = acct.clock(), acct.recorded
        decide()
        acct.lap("policy.decide", t0, nested=acct.recorded - inner)
    """

    __slots__ = ("clock", "tracer", "recorded", "_acc")

    def __init__(self, tracer: "SpanTracer | None" = None) -> None:
        #: The clock shared with :class:`SpanTracer` (perf_counter), so
        #: forwarded timeline events land on the tracer's own timebase.
        self.clock = time.perf_counter
        self.tracer = tracer
        #: Seconds recorded by every lap so far (envelopes excluded).
        self.recorded = 0.0
        #: name -> [total_s, calls]
        self._acc: dict[str, list] = {}

    # -- hot-path recording --------------------------------------------------
    def lap(self, name: str, t_prev: float, nested: float = 0.0) -> float:
        """Record the time since ``t_prev``, less the ``nested`` seconds
        laps inside the interval already recorded; return the new mark.

        The tracer mirror keeps the full interval, so the timeline still
        shows the nesting.
        """
        now = self.clock()
        elapsed = now - t_prev - nested
        self.recorded += elapsed
        slot = self._acc.get(name)
        if slot is None:
            self._acc[name] = [elapsed, 1]
        else:
            slot[0] += elapsed
            slot[1] += 1
        if self.tracer is not None:
            self.tracer.record_complete(name, t_prev, now, category="perf")
        return now

    def add(self, name: str, elapsed_s: float) -> None:
        """Accumulate an envelope total measured by laps (no clock read).

        Envelopes contain leaf laps, so they do not count towards
        :attr:`recorded`.
        """
        slot = self._acc.get(name)
        if slot is None:
            self._acc[name] = [elapsed_s, 1]
        else:
            slot[0] += elapsed_s
            slot[1] += 1

    # -- views ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._acc)

    def total(self, name: str) -> float:
        """Accumulated seconds for ``name`` (0.0 when never recorded)."""
        slot = self._acc.get(name)
        return slot[0] if slot is not None else 0.0

    def calls(self, name: str) -> int:
        slot = self._acc.get(name)
        return slot[1] if slot is not None else 0

    def snapshot(self) -> dict[str, dict[str, float]]:
        """``{phase: {total_s, calls, mean_us}}`` for every recorded phase."""
        return {
            name: {
                "total_s": total,
                "calls": calls,
                "mean_us": (total / calls) * 1e6 if calls else 0.0,
            }
            for name, (total, calls) in sorted(self._acc.items())
        }

    def table(self, top: int | None = None) -> str:
        """Ranked human-readable phase table (see :func:`phase_table`)."""
        return phase_table(self.snapshot(), top)

    def reset(self) -> None:
        self.recorded = 0.0
        self._acc.clear()


_active: PhaseAccounting | None = None


def accounting() -> PhaseAccounting | None:
    """The active phase accounting, or ``None`` (the hot-path gate)."""
    return _active


def enable_phases(tracer: "SpanTracer | None" = None) -> PhaseAccounting:
    """Switch phase accounting on (idempotent); returns the accumulator.

    ``tracer`` additionally mirrors every recorded phase as a Chrome
    trace-event — attach one only for bounded runs (``repro obs
    profile``): a multi-hour simulation would accumulate an event per
    phase per tick.
    """
    global _active
    if _active is None:
        _active = PhaseAccounting(tracer=tracer)
    return _active


def disable_phases() -> None:
    """Switch phase accounting off and drop the accumulators."""
    global _active
    _active = None


@contextmanager
def phases_session(
    tracer: "SpanTracer | None" = None,
) -> Iterator[PhaseAccounting]:
    """Enable phase accounting for a ``with`` block, restoring after.

    Nested sessions share the outer accumulator (as with
    :func:`repro.obs.runtime.session`).
    """
    outer = _active
    acct = enable_phases(tracer=tracer)
    try:
        yield acct
    finally:
        if outer is None:
            disable_phases()
