"""Span tracing with Chrome trace-event export.

:class:`SpanTracer` records nested spans (context-manager API) against a
wall clock and, optionally, the simulator's own clock, and exports them
as Chrome trace-event JSON — the format rendered by ``chrome://tracing``
and `Perfetto <https://ui.perfetto.dev>`_.  Spans are "complete" events
(``ph: "X"``) so nesting is reconstructed by the viewer from timestamp
containment; the tracer additionally records each span's depth and its
simulation timestamp in ``args`` so tests (and post-hoc scripts) need no
viewer to reason about structure.

When observability is disabled the process uses :data:`NULL_TRACER`,
whose :meth:`~NullTracer.span` returns a shared no-op context manager.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable

__all__ = ["Span", "SpanTracer", "NullTracer", "NULL_TRACER", "NULL_SPAN"]


class Span:
    """One in-flight span; use via ``with tracer.span(...) as span:``.

    After the block exits, :attr:`duration_s` holds the recorded
    event's duration, so a histogram can observe the span itself.
    """

    __slots__ = (
        "tracer", "name", "category", "args", "start_us", "duration_s", "_done",
    )

    def __init__(
        self, tracer: "SpanTracer", name: str, category: str, args: dict
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self.start_us = 0.0
        self.duration_s = 0.0
        self._done = False

    def set(self, **args: object) -> None:
        """Attach extra attributes to the span while it is open."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        self.start_us = self.tracer._now_us()
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._done:  # pragma: no cover - double-exit guard
            return
        self._done = True
        end_us = self.tracer._now_us()
        depth = self.tracer._pop(self)
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self.duration_s = self.tracer._record(self, end_us, depth) / 1e6


class SpanTracer:
    """Collects spans into an in-memory Chrome trace."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        process_name: str = "repro",
    ) -> None:
        self._clock = clock
        self._epoch = clock()
        self.process_name = process_name
        self.events: list[dict] = []
        self._stacks: dict[int, list[Span]] = {}
        self._lock = threading.Lock()

    # -- clock ----------------------------------------------------------------
    def _now_us(self) -> float:
        return (self._clock() - self._epoch) * 1e6

    # -- span lifecycle -------------------------------------------------------
    def span(
        self,
        name: str,
        category: str = "repro",
        sim_time: float | None = None,
        **args: object,
    ) -> Span:
        """Open a nested span.  ``sim_time`` stamps the simulator clock."""
        if sim_time is not None:
            args["sim_time_s"] = float(sim_time)
        return Span(self, name, category, args)

    def record_complete(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "repro",
        **args: object,
    ) -> None:
        """Record an already-measured interval as a complete event.

        ``start``/``end`` are raw clock readings (the tracer's own
        clock, ``time.perf_counter`` by default) — the phase-accounting
        hot path measures intervals itself and forwards them here, so a
        phase costs one event append instead of a :class:`Span` object.
        """
        with self._lock:
            self.events.append(
                {
                    "name": name,
                    "cat": category,
                    "ph": "X",
                    "ts": (start - self._epoch) * 1e6,
                    "dur": max(0.0, end - start) * 1e6,
                    "pid": 1,
                    "tid": threading.get_ident() % 2**31,
                    "args": dict(args),
                }
            )

    def instant(self, name: str, category: str = "repro", **args: object) -> None:
        """Record a zero-duration marker event."""
        with self._lock:
            self.events.append(
                {
                    "name": name,
                    "cat": category,
                    "ph": "i",
                    "ts": self._now_us(),
                    "pid": 1,
                    "tid": threading.get_ident() % 2**31,
                    "s": "t",
                    "args": dict(args),
                }
            )

    def _push(self, span: Span) -> None:
        self._stacks.setdefault(threading.get_ident(), []).append(span)

    def _pop(self, span: Span) -> int:
        """Remove ``span`` from its thread's stack; return its depth."""
        stack = self._stacks.get(threading.get_ident(), [])
        if span in stack:
            depth = stack.index(span)
            del stack[depth:]
            return depth
        return 0  # pragma: no cover - exited out of order

    def _record(self, span: Span, end_us: float, depth: int) -> float:
        """Append ``span``'s complete event; returns its ``dur`` (µs)."""
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start_us,
            "dur": max(0.0, end_us - span.start_us),
            "pid": 1,
            "tid": threading.get_ident() % 2**31,
            "args": {**span.args, "depth": depth},
        }
        with self._lock:
            self.events.append(event)
        return event["dur"]

    # -- queries / export ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def spans(self, name: str | None = None) -> list[dict]:
        """Completed span events, optionally filtered by name."""
        return [
            e
            for e in self.events
            if e["ph"] == "X" and (name is None or e["name"] == name)
        ]

    def reset(self) -> None:
        with self._lock:
            self.events.clear()
            self._stacks.clear()
            self._epoch = self._clock()

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON object (Perfetto-loadable)."""
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": 1,
                "tid": 0,
                "args": {"name": self.process_name},
            }
        ]
        return {
            "traceEvents": metadata + sorted(self.events, key=lambda e: e["ts"]),
            "displayTimeUnit": "ms",
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_chrome_trace(), indent=indent)


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def set(self, **args: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: Public no-op span: hot paths write
#: ``with tracer.span(...) if obs.enabled() else obs.NULL_SPAN:`` so the
#: disabled path allocates nothing (not even the kwargs dict a
#: ``NullTracer.span(...)`` call would build).
NULL_SPAN = _NULL_SPAN


class NullTracer:
    """Zero-cost tracer used while observability is disabled."""

    events: list[dict] = []

    def span(
        self,
        name: str,
        category: str = "repro",
        sim_time: float | None = None,
        **args: object,
    ) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, category: str = "repro", **args: object) -> None:
        pass

    def record_complete(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "repro",
        **args: object,
    ) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def spans(self, name: str | None = None) -> list[dict]:
        return []

    def reset(self) -> None:
        pass

    def to_chrome_trace(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_chrome_trace(), indent=indent)


NULL_TRACER = NullTracer()
