"""Append-only JSONL stream exporter with bounded buffering.

The live layer's wire format is one JSON object per line.  Records are
buffered in memory and flushed as *whole lines* through a single
``os.write`` on an ``O_APPEND`` descriptor, so a run killed between
flushes loses at most the buffered tail — every line already on disk is
complete, parseable JSON.  Readers (:mod:`repro.obs.live.watch`) still
tolerate a torn final line defensively.

Alongside the JSONL stream the exporter can maintain an OpenMetrics-style
text snapshot (``stream.prom``) regenerated on every flush via
:func:`repro.obs.fsio.atomic_write_text`, so a scrape never observes a
half-written exposition.

Record types emitted by the live session:

``meta``     stream header (version, config) — always the first line;
``tick``     one engine tick: clocks, load, link, decisions, drift, SLO
             (fleet runs add the engine's ``node`` and a ``fleet_slo``
             burn rollup);
``finish``   one completed deployment on a fleet node (node, mode, p99,
             SLO verdict) — fleet runs only;
``pool``     rack-pool arbitration on a throttled fleet tick (regime,
             throttled nodes, capacity factors) — fleet runs only;
``event``    discrete alarms (``drift``, ``slo_alert``,
             ``pool_throttle``);
``profile``  the phase-accounting table (``phases``: per phase
             ``total_s``, ``calls``, ``mean_us``), every 200 ticks
             and at close;
``end``      clean-shutdown marker — absent when the run was killed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable

from repro.obs.fsio import atomic_write_text

__all__ = ["StreamExporter"]


class StreamExporter:
    """Bounded-buffer JSONL writer with atomic side-channel snapshots."""

    def __init__(
        self,
        path: str | Path,
        flush_every: int = 64,
        openmetrics_path: str | Path | None = None,
        openmetrics_source: Callable[[], str] | None = None,
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.flush_every = flush_every
        self.openmetrics_path = (
            Path(openmetrics_path) if openmetrics_path is not None else None
        )
        self._openmetrics_source = openmetrics_source
        self._buffer: list[str] = []
        self._emitted = 0
        self._flushed = 0
        self._fd: int | None = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    # -- emission ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._fd is None

    @property
    def emitted(self) -> int:
        """Records accepted so far (buffered + flushed)."""
        return self._emitted

    @property
    def pending(self) -> int:
        """Records buffered but not yet on disk."""
        return len(self._buffer)

    def emit(self, record: dict) -> None:
        """Buffer one record; flushes automatically at the buffer bound."""
        if self._fd is None:
            raise ValueError(f"stream {self.path} is closed")
        self._buffer.append(json.dumps(record, separators=(",", ":")))
        self._emitted += 1
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Write all buffered records as complete lines, then snapshot.

        The buffered lines go out in one ``write`` so the append is as
        close to atomic as the filesystem allows; the OpenMetrics text
        (when configured) is replaced atomically.
        """
        if self._fd is None:
            return
        if self._buffer:
            data = ("\n".join(self._buffer) + "\n").encode("utf-8")
            os.write(self._fd, data)
            self._flushed += len(self._buffer)
            self._buffer.clear()
        if self.openmetrics_path is not None and self._openmetrics_source:
            atomic_write_text(self.openmetrics_path, self._openmetrics_source())

    def close(self) -> None:
        """Flush and release the descriptor (idempotent)."""
        if self._fd is None:
            return
        self.flush()
        os.close(self._fd)
        self._fd = None
