"""Trace recording: metric time series plus per-deployment records.

A :class:`Trace` is the raw material for everything downstream — the
correlation analysis of Fig. 6, the training datasets of §V-B1 and the
orchestration evaluation of §VI-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.deployment import DeploymentRecord
from repro.hardware.counters import METRIC_NAMES, as_counter_row
from repro.workloads.base import MemoryMode, WorkloadKind

__all__ = ["CHUNK_ROWS", "Trace"]

#: Counter rows per storage chunk.  1,024 rows of seven float64 metrics
#: make 57 KB, under glibc's 128 KB mmap threshold, so a chunk comes
#: from the heap rather than from pages mapped for it alone.
CHUNK_ROWS = 1024


@dataclass
class Trace:
    """Time-indexed record of one simulated scenario.

    Counter rows live in fixed-size float64 chunks of :data:`CHUNK_ROWS`
    rows each.  A read copies only the rows it returns out of the one or
    two chunks that hold them.
    """

    dt: float = 1.0
    times: list[float] = field(default_factory=list)
    _chunks: list[np.ndarray] = field(default_factory=list, repr=False)
    concurrency: list[int] = field(default_factory=list)
    records: list[DeploymentRecord] = field(default_factory=list)

    def append(self, time: float, row: np.ndarray, n_running: int) -> None:
        """Record one tick: a copy of its counter row (see
        :func:`repro.hardware.counters.as_counter_row`) and how many
        deployments run."""
        if self.times and time <= self.times[-1]:
            raise ValueError("trace timestamps must be strictly increasing")
        row = as_counter_row(row)
        slot = len(self.times) % CHUNK_ROWS
        if slot == 0:
            self._chunks.append(np.empty((CHUNK_ROWS, len(METRIC_NAMES))))
        self._chunks[-1][slot] = row
        self.times.append(time)
        self.concurrency.append(n_running)

    def extend(self, times, rows, concurrency) -> None:
        """Record many ticks, each checked as :meth:`append` checks it
        (a checkpoint or ``.npz`` restore)."""
        if not len(times) == len(rows) == len(concurrency):
            raise ValueError(
                f"{len(times)} times, {len(rows)} counter rows and "
                f"{len(concurrency)} concurrency counts do not line up"
            )
        for time, row, n_running in zip(times, rows, concurrency):
            self.append(time, row, n_running)

    def add_record(self, record: DeploymentRecord) -> None:
        self.records.append(record)

    def newest_row(self) -> np.ndarray:
        """The newest counter row as a writable view into the trace, for
        telemetry faults that blank its cells in place."""
        if not self.times:
            raise IndexError("the trace holds no counter rows")
        return self._chunks[-1][(len(self.times) - 1) % CHUNK_ROWS]

    # -- views ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    @property
    def metrics(self) -> np.ndarray:
        """Counter matrix of shape ``(ticks, n_metrics)``."""
        return self._read(0, len(self.times))

    def _read(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` of the counter matrix, clipped to the rows
        the trace holds, copied into a new array from the chunks they
        lie in."""
        start, stop = max(start, 0), min(stop, len(self.times))
        if start >= stop:
            return np.zeros((0, len(METRIC_NAMES)))
        first, last = start // CHUNK_ROWS, (stop - 1) // CHUNK_ROWS
        return np.concatenate([
            chunk[max(start - base, 0) : stop - base]
            for chunk, base in zip(
                self._chunks[first : last + 1],
                range(first * CHUNK_ROWS, stop, CHUNK_ROWS),
            )
        ])

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
        Only rows the trace holds are returned, zero-padded in front to
        the window's length, so early arrivals still produce fixed-shape
        windows.
        """
        if length_s <= 0:
            raise ValueError("window length must be positive")
        steps = int(round(length_s / self.dt))
        end_idx = int(round(end_time / self.dt))
        rows = self._read(end_idx - steps, end_idx)
        if rows.shape[0] < steps:
            pad = np.zeros((steps - rows.shape[0], rows.shape[1]))
            rows = np.concatenate([pad, rows])
        return rows

    def horizon_mean(self, start_time: float, length_s: float) -> np.ndarray:
        """Mean metric vector over ``[start_time, start_time + length_s)``.

        This is the system-state model's target: the predicted mean value
        of each event over the horizon window z (§V-B2).  The live
        session's drift join scores each Ŝ forecast against it too.
        Only rows the trace holds are averaged.
        """
        if length_s <= 0:
            raise ValueError("horizon length must be positive")
        start_idx = int(round(start_time / self.dt))
        steps = int(round(length_s / self.dt))
        rows = self._read(start_idx, start_idx + steps)
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
            trace.extend(
                [float(t) for t in archive["times"]],
                archive["metrics"],
                [int(c) for c in archive["concurrency"]],
            )
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
