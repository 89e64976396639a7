"""Trace recording: metric time series plus per-deployment records.

A :class:`Trace` is the raw material for everything downstream — the
correlation analysis of Fig. 6, the training datasets of §V-B1 and the
orchestration evaluation of §VI-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.deployment import DeploymentRecord
from repro.hardware.counters import METRIC_NAMES, PerfCounters
from repro.workloads.base import MemoryMode, WorkloadKind

__all__ = ["Trace"]


@dataclass
class Trace:
    """Time-indexed record of one simulated scenario."""

    dt: float = 1.0
    times: list[float] = field(default_factory=list)
    _counter_rows: list[np.ndarray] = field(default_factory=list)
    concurrency: list[int] = field(default_factory=list)
    records: list[DeploymentRecord] = field(default_factory=list)

    def append(self, time: float, counters: PerfCounters, n_running: int) -> None:
        if self.times and time <= self.times[-1]:
            raise ValueError("trace timestamps must be strictly increasing")
        self.times.append(time)
        self._counter_rows.append(counters.as_array())
        self.concurrency.append(n_running)

    def add_record(self, record: DeploymentRecord) -> None:
        self.records.append(record)

    # -- views ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    @property
    def metrics(self) -> np.ndarray:
        """Counter matrix of shape ``(ticks, n_metrics)``."""
        return self._rows(0, len(self._counter_rows))

    def _rows(self, start: int, stop: int) -> np.ndarray:
        """``metrics[start:stop]``, stacking only the rows it returns."""
        rows = self._counter_rows[start:stop]
        return np.vstack(rows) if rows else np.zeros((0, len(METRIC_NAMES)))

    def metric(self, name: str) -> np.ndarray:
        """Time series of a single named metric."""
        try:
            column = METRIC_NAMES.index(name)
        except ValueError:
            raise KeyError(
                f"unknown metric {name!r}; available: {list(METRIC_NAMES)}"
            ) from None
        return self.metrics[:, column]

    def window(self, end_time: float, length_s: float) -> np.ndarray:
        """Metric rows covering ``[end_time - length_s, end_time)``.

        Used to build the history window S (r = 120 s in the paper).
        Rows before the start of the trace are zero-padded so that early
        arrivals still produce fixed-shape windows.
        """
        if length_s <= 0:
            raise ValueError("window length must be positive")
        steps = int(round(length_s / self.dt))
        end_idx = int(round(end_time / self.dt))
        start_idx = end_idx - steps
        rows = self._rows(max(0, start_idx), end_idx)
        if start_idx < 0 or rows.shape[0] < steps:
            pad = np.zeros((steps - rows.shape[0], rows.shape[1]))
            rows = np.vstack([pad, rows]) if rows.size else pad
        return rows

    def horizon_mean(self, start_time: float, length_s: float) -> np.ndarray:
        """Mean metric vector over ``[start_time, start_time + length_s)``.

        This is the system-state model's target: the predicted mean value
        of each event over the horizon window z (§V-B2).
        """
        if length_s <= 0:
            raise ValueError("horizon length must be positive")
        start_idx = int(round(start_time / self.dt))
        steps = int(round(length_s / self.dt))
        rows = self._rows(start_idx, start_idx + steps)
        if rows.shape[0] == 0:
            raise ValueError("horizon window lies outside the trace")
        return rows.mean(axis=0)

    # -- record queries ----------------------------------------------------
    # -- persistence --------------------------------------------------------
    def save(self, path) -> None:
        """Persist the trace (time series + records) to an ``.npz`` file.

        Enables the collect-once / train-many workflow: simulating the
        72-scenario paper corpus takes minutes while model sweeps over
        it are repeated many times.
        """
        record_rows = np.array(
            [
                (
                    r.app_id,
                    r.name,
                    r.kind.value,
                    r.mode.value,
                    r.arrival_time,
                    r.finish_time,
                    r.runtime_s,
                    r.p99_ms,
                    r.p999_ms,
                    r.mean_slowdown,
                    r.link_traffic_gb,
                    r.decided_s,
                )
                for r in self.records
            ],
            dtype=object,
        )
        np.savez(
            path,
            dt=np.array([self.dt]),
            times=np.asarray(self.times),
            metrics=self.metrics,
            concurrency=np.asarray(self.concurrency),
            records=record_rows,
            allow_pickle=True,
        )

    @classmethod
    def load(cls, path) -> "Trace":
        """Restore a trace saved by :meth:`save`."""
        with np.load(path, allow_pickle=True) as archive:
            trace = cls(dt=float(archive["dt"][0]))
            trace.times = [float(t) for t in archive["times"]]
            trace._counter_rows = [row for row in archive["metrics"]]
            trace.concurrency = [int(c) for c in archive["concurrency"]]
            for row in archive["records"]:
                trace.records.append(
                    DeploymentRecord(
                        app_id=int(row[0]),
                        name=str(row[1]),
                        kind=WorkloadKind(row[2]),
                        mode=MemoryMode(row[3]),
                        arrival_time=float(row[4]),
                        finish_time=float(row[5]),
                        runtime_s=float(row[6]),
                        p99_ms=float(row[7]),
                        p999_ms=float(row[8]),
                        mean_slowdown=float(row[9]),
                        link_traffic_gb=float(row[10]),
                        decided_s=None if row[11] is None else float(row[11]),
                    )
                )
        return trace

    def records_of_kind(self, kind: WorkloadKind) -> list[DeploymentRecord]:
        return [r for r in self.records if r.kind is kind]

    def records_for(self, name: str) -> list[DeploymentRecord]:
        return [r for r in self.records if r.name == name]

    def offload_fraction(self, kind: WorkloadKind | None = None) -> float:
        """Fraction of (non-interference) deployments placed on remote."""
        records = [
            r
            for r in self.records
            if r.kind is not WorkloadKind.INTERFERENCE
            and (kind is None or r.kind is kind)
        ]
        if not records:
            return 0.0
        remote = sum(1 for r in records if r.mode is MemoryMode.REMOTE)
        return remote / len(records)

    def total_link_traffic_gb(self) -> float:
        return sum(r.link_traffic_gb for r in self.records)
