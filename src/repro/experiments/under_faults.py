"""Experiments fig16-faults / fig17-faults — orchestration under faults.

Replays the Fig. 16 / Fig. 17 comparisons twice over the same held-out
arrival sequences: once healthy, once under a representative
:meth:`~repro.faults.plan.FaultPlan.sample` schedule (link outage and
degradation, telemetry dropouts/corruption, predictor NaNs and injected
latency).  The deltas quantify graceful degradation: how much offload
and QoS headroom survives when the prediction path and the fabric
misbehave, and whether the decision circuit breaker walks the full
open → half-open → closed arc instead of wedging.

The policy set is trimmed relative to the healthy figures (one Adrias
operating point, the strongest naive baseline and the All-Local anchor)
— the object of study is the degradation behaviour, not the β sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import format_table
from repro.experiments.common import (
    ExperimentScale,
    eval_scenario_configs,
    get_predictor,
    scale_from_env,
)
from repro.experiments.fig17_lc_orchestration import derive_qos_levels
from repro.faults.plan import FaultPlan
from repro.faults.runtime import active_plan
from repro.orchestrator.evaluation import (
    PolicyResult,
    compare_policies,
    qos_violations,
)
from repro.orchestrator.policies import AdriasPolicy, AllLocalPolicy, RandomPolicy
from repro.workloads.base import WorkloadKind

__all__ = [
    "Fig16FaultsResult",
    "Fig17FaultsResult",
    "run_fig16",
    "run_fig17",
    "sample_plan_for",
]

_BETA = 0.9
_LC_QOS_MS = 6.0  # matches fig16's generous LC side-traffic QoS
_QOS_LEVEL = 2  # middle of the five Fig. 17 levels


def sample_plan_for(scale: ExperimentScale) -> FaultPlan:
    """The deterministic fault schedule both variants replay under."""
    return FaultPlan.sample(seed=scale.seed, duration_s=scale.eval_duration_s)


@dataclass(frozen=True)
class Fig16FaultsResult:
    plan: FaultPlan
    healthy: dict[str, PolicyResult]
    faulted: dict[str, PolicyResult]
    breaker_transitions: tuple[tuple[float, str, str], ...]
    degraded_decisions: int
    baseline_name: str = "all-local"

    def _median_drop(self, results: dict[str, PolicyResult], policy: str) -> float:
        base = results[self.baseline_name]
        target = results[policy]
        drops = []
        for name in base.benchmark_names(WorkloadKind.BEST_EFFORT):
            base_median = base.median_performance(name)
            target_median = target.median_performance(name)
            if np.isnan(base_median) or np.isnan(target_median) or base_median == 0:
                continue
            drops.append(target_median / base_median - 1.0)
        return float(np.mean(drops)) if drops else float("nan")

    def offload(self, policy: str, faulted: bool = False) -> float:
        results = self.faulted if faulted else self.healthy
        return results[policy].offload_fraction(WorkloadKind.BEST_EFFORT)

    def format(self) -> str:
        rows = []
        for policy in self.healthy:
            rows.append(
                (
                    policy,
                    f"{self.offload(policy) * 100:.1f}%",
                    f"{self.offload(policy, faulted=True) * 100:.1f}%",
                    f"{self._median_drop(self.healthy, policy) * 100:+.1f}%",
                    f"{self._median_drop(self.faulted, policy) * 100:+.1f}%",
                )
            )
        table = format_table(
            ["policy", "offload", "offload (faults)",
             "median drop", "median drop (faults)"],
            rows,
            title="Fig. 16 under faults — BE orchestration degradation",
        )
        arc = " ".join(
            f"{old}->{new}@{t:.0f}s"
            for t, old, new in self.breaker_transitions
        ) or "(no transitions)"
        return (
            f"{table}\n"
            f"fault plan: {len(self.plan)} windows, seed={self.plan.seed}, "
            f"horizon={self.plan.horizon_s:.0f}s\n"
            f"circuit breaker: {arc}\n"
            f"degraded decisions (fallback chain): {self.degraded_decisions}"
        )


@dataclass(frozen=True)
class Fig17FaultsResult:
    plan: FaultPlan
    qos_level: int
    qos_p99_ms: dict[str, float]
    #: policy -> {"healthy"|"faulted"} -> per-app {violations, offloads, total}
    summaries: dict[str, dict[str, dict[str, dict[str, int]]]]
    breaker_transitions: tuple[tuple[float, str, str], ...]

    def violations(self, policy: str, app: str, faulted: bool = False) -> int:
        key = "faulted" if faulted else "healthy"
        return self.summaries[policy][key][app]["violations"]

    def format(self) -> str:
        rows = []
        for policy, conditions in self.summaries.items():
            for app in sorted(self.qos_p99_ms):
                healthy = conditions["healthy"][app]
                faulted = conditions["faulted"][app]
                rows.append(
                    (
                        policy,
                        app,
                        f"{self.qos_p99_ms[app]:.2f}",
                        f"{healthy['violations']}/{healthy['total']}",
                        f"{faulted['violations']}/{faulted['total']}",
                        healthy["offloads"],
                        faulted["offloads"],
                    )
                )
        table = format_table(
            ["policy", "app", "QoS p99 ms", "violations", "violations (faults)",
             "offloads", "offloads (faults)"],
            rows,
            title=f"Fig. 17 under faults — LC QoS retention (level {self.qos_level})",
        )
        arc = " ".join(
            f"{old}->{new}@{t:.0f}s"
            for t, old, new in self.breaker_transitions
        ) or "(no transitions)"
        return f"{table}\ncircuit breaker: {arc}"


def run_fig16(scale: ExperimentScale | None = None) -> Fig16FaultsResult:
    scale = scale if scale is not None else scale_from_env()
    predictor = get_predictor(scale)
    plan = sample_plan_for(scale)
    configs = eval_scenario_configs(scale)

    def policies() -> dict:
        return {
            "random": RandomPolicy(seed=scale.seed + 1),
            "all-local": AllLocalPolicy(),
            f"adrias-{_BETA:g}": AdriasPolicy(
                predictor, beta=_BETA, default_qos_ms=_LC_QOS_MS
            ),
        }

    healthy = compare_policies(policies(), configs)
    faulted_policies = policies()
    with active_plan(plan):
        faulted = compare_policies(faulted_policies, configs)
    adrias = faulted_policies[f"adrias-{_BETA:g}"]
    return Fig16FaultsResult(
        plan=plan,
        healthy=healthy,
        faulted=faulted,
        breaker_transitions=tuple(adrias.breaker.transitions),
        degraded_decisions=adrias.degraded_decisions,
    )


def run_fig17(scale: ExperimentScale | None = None) -> Fig17FaultsResult:
    scale = scale if scale is not None else scale_from_env()
    predictor = get_predictor(scale)
    plan = sample_plan_for(scale)
    configs = eval_scenario_configs(scale)
    qos = {
        name: values[_QOS_LEVEL]
        for name, values in derive_qos_levels(scale).items()
    }

    def policies() -> dict:
        return {
            "all-local": AllLocalPolicy(),
            "adrias": AdriasPolicy(predictor, beta=_BETA, qos_p99_ms=qos),
        }

    healthy = compare_policies(policies(), configs)
    faulted_policies = policies()
    with active_plan(plan):
        faulted = compare_policies(faulted_policies, configs)
    summaries = {
        name: {
            "healthy": qos_violations(healthy[name], qos),
            "faulted": qos_violations(faulted[name], qos),
        }
        for name in healthy
    }
    return Fig17FaultsResult(
        plan=plan,
        qos_level=_QOS_LEVEL,
        qos_p99_ms=qos,
        summaries=summaries,
        breaker_transitions=tuple(faulted_policies["adrias"].breaker.transitions),
    )
