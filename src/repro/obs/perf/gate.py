"""Performance-regression gate over committed benchmark baselines.

Compares a freshly measured benchmark report (``BENCH_engine.json``)
against the committed baseline and fails when any shared throughput
metric regresses beyond tolerance.  The gate is deliberately one-sided:
running *faster* than the baseline never fails — the baseline is a
floor, refreshed by committing new numbers.

Two knobs absorb measurement noise:

* ``tolerance`` — the relative regression a metric may show before the
  gate trips (0.2 ⇒ a 20 % slowdown still passes);
* ``headroom`` — an extra divisor on the baseline floor for machines
  slower than the one that produced it (shared CI runners routinely run
  2–3× slower than a quiet dev box).  ``headroom=3`` lets a metric fall
  to a third of the baseline before the tolerance even starts to bite.

Effective floor: ``baseline * (1 - tolerance) / headroom``.

Shared between the ``repro obs perfcheck`` CLI and the CI ``perf-smoke``
job; only metrics present in *both* reports are compared, so a report
missing a section gates the subset it measured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "GateCheck",
    "GateResult",
    "extract_metrics",
    "compare_reports",
    "load_report",
]


@dataclass(frozen=True)
class GateCheck:
    """One metric's verdict (all gate metrics are higher-is-better)."""

    name: str
    baseline: float
    current: float
    floor: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    @property
    def ok(self) -> bool:
        return self.current >= self.floor


@dataclass
class GateResult:
    """The full comparison; falsy when any check regressed."""

    checks: list[GateCheck] = field(default_factory=list)
    tolerance: float = 0.0
    headroom: float = 1.0

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[GateCheck]:
        return [c for c in self.checks if not c.ok]

    def __bool__(self) -> bool:
        return self.ok

    def format(self) -> str:
        lines = [
            f"perf gate: tolerance={self.tolerance:g} headroom={self.headroom:g}",
            f"{'metric':<34} {'baseline':>12} {'current':>12} "
            f"{'ratio':>7} {'floor':>12}  verdict",
        ]
        for check in self.checks:
            verdict = "ok" if check.ok else "REGRESSED"
            lines.append(
                f"{check.name:<34} {check.baseline:>12.2f} "
                f"{check.current:>12.2f} {check.ratio:>6.2f}x "
                f"{check.floor:>12.2f}  {verdict}"
            )
        if not self.checks:
            lines.append("(no comparable metrics between the two reports)")
        lines.append(
            "PASS" if self.ok
            else f"FAIL: {len(self.failures)} metric(s) regressed "
                 f"beyond tolerance"
        )
        return "\n".join(lines)


def extract_metrics(report: dict) -> dict[str, float]:
    """Flat ``{name: value}`` of gate-able (higher-is-better) metrics of
    an engine report (``scales`` / ``decisions`` / ``lstm`` / ``fleet``)."""
    if not (
        report.get("kind") == "engine" or "scales" in report or "decisions" in report
    ):
        raise ValueError(
            "unrecognized benchmark report: expected the BENCH_engine.json "
            "(scales/decisions) shape"
        )
    metrics: dict[str, float] = {}
    for scale, entry in report.get("scales", {}).items():
        value = entry.get("ticks_per_sec")
        if value:
            metrics[f"ticks_per_sec[{scale}]"] = float(value)
    for candidates, entry in report.get("decisions", {}).items():
        value = entry.get("decisions_per_sec")
        if value:
            metrics[f"decisions_per_sec[{candidates}]"] = float(value)
    for nodes, entry in report.get("fleet", {}).items():
        value = entry.get("fleet_ticks_per_sec")
        if value:
            metrics[f"fleet_ticks_per_sec[{nodes}]"] = float(value)
    lstm = report.get("lstm", {})
    if lstm.get("speedup"):
        # Training- over inference-mode forward time of the LSTM: a
        # ratio, so independent of the machine's speed.
        metrics["lstm_inference_speedup"] = float(lstm["speedup"])
    return metrics


def compare_reports(
    baseline: dict,
    current: dict,
    tolerance: float = 0.2,
    headroom: float = 1.0,
) -> GateResult:
    """Gate ``current`` against ``baseline`` on their shared metrics."""
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must be in [0, 1)")
    if headroom < 1:
        raise ValueError("headroom must be >= 1")
    base = extract_metrics(baseline)
    cur = extract_metrics(current)
    result = GateResult(tolerance=tolerance, headroom=headroom)
    for name in sorted(base):
        if name not in cur:
            continue
        floor = base[name] * (1.0 - tolerance) / headroom
        result.checks.append(
            GateCheck(
                name=name, baseline=base[name], current=cur[name], floor=floor
            )
        )
    return result


def load_report(path: str | Path) -> dict:
    """Load a benchmark report JSON, with a pointed error when absent."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(
            f"no benchmark report at {path} — run benchmarks/bench_engine.py "
            f"with --json first"
        )
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
