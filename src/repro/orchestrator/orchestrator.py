"""The Orchestrator component: end-to-end wiring (Fig. 7).

Ties Watcher → Predictor → policy into a scheduler that plugs into the
scenario replay machinery, plus a convenience constructor that performs
the full offline phase (trace collection, dataset generation, model
training) on simulated scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.engine import ClusterEngine
from repro.cluster.scenario import ScenarioConfig, run_scenario
from repro.cluster.trace import Trace
from repro.models.dataset import build_performance_dataset, build_system_state_dataset
from repro.models.features import FeatureConfig
from repro.models.performance import PerformancePredictor
from repro.models.predictor import Predictor
from repro.models.signatures import SignatureLibrary
from repro.models.system_state import SystemStatePredictor
from repro.orchestrator.policies import AdriasPolicy
from repro.workloads.base import MemoryMode, WorkloadKind, WorkloadProfile
from repro.workloads.registry import be_profiles, lc_profiles

__all__ = ["TrainingBudget", "Orchestrator", "train_predictor"]


@dataclass(frozen=True)
class TrainingBudget:
    """Scale knobs for the offline phase.

    The paper simulates 72 one-hour scenarios; ``paper()`` replicates
    that scale while ``quick()`` is sized for CI and unit tests.
    """

    n_scenarios: int = 12
    scenario_duration_s: float = 1800.0
    epochs_system: int = 50
    epochs_performance: int = 60
    stride_s: float = 15.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_scenarios <= 0 or self.scenario_duration_s <= 0:
            raise ValueError("budget sizes must be positive")

    @classmethod
    def paper(cls) -> "TrainingBudget":
        return cls(n_scenarios=72, scenario_duration_s=3600.0,
                   epochs_system=60, epochs_performance=80)

    @classmethod
    def quick(cls) -> "TrainingBudget":
        return cls(n_scenarios=4, scenario_duration_s=900.0,
                   epochs_system=12, epochs_performance=15)

    def scenario_configs(self) -> list[ScenarioConfig]:
        """Spawn-interval mix from {5,20} to {5,60} (§V-B1)."""
        highs = (20, 30, 40, 50, 60)
        return [
            ScenarioConfig(
                duration_s=self.scenario_duration_s,
                spawn_interval=(5.0, float(highs[i % len(highs)])),
                seed=self.seed + i,
            )
            for i in range(self.n_scenarios)
        ]


def collect_traces(budget: TrainingBudget) -> list[Trace]:
    """Offline phase step 1: interference-aware trace collection."""
    return [run_scenario(cfg) for cfg in budget.scenario_configs()]


def train_predictor(
    budget: TrainingBudget | None = None,
    feature_config: FeatureConfig | None = None,
    traces: list[Trace] | None = None,
    signatures: SignatureLibrary | None = None,
) -> Predictor:
    """Run the full offline phase and return a ready Predictor.

    Steps (§V-B): collect interference-aware traces, capture application
    signatures, build the datasets, train the system-state model, then
    train the BE and LC performance models using Ŝ propagated from the
    trained system-state model (the {120, Ŝ} configuration).
    """
    budget = budget if budget is not None else TrainingBudget()
    config = feature_config if feature_config is not None else FeatureConfig()
    if traces is None:
        traces = collect_traces(budget)

    if signatures is None:
        signatures = SignatureLibrary(feature_config=config)
        signatures.capture_all(list(be_profiles().values()))
        signatures.capture_all(list(lc_profiles().values()))

    system_state = SystemStatePredictor(feature_config=config, seed=budget.seed)
    ss_data = build_system_state_dataset(traces, config, stride_s=budget.stride_s)
    system_state.fit(ss_data.windows, ss_data.targets, epochs=budget.epochs_system)

    models: dict[WorkloadKind, PerformancePredictor | None] = {}
    for kind in (WorkloadKind.BEST_EFFORT, WorkloadKind.LATENCY_CRITICAL):
        try:
            data = build_performance_dataset(traces, signatures, kind, config)
        except ValueError:
            models[kind] = None  # no samples of this kind in the traces
            continue
        predictor = PerformancePredictor(feature_config=config, seed=budget.seed + 1)
        # {120, Ŝ}: train on propagated system-state predictions so the
        # performance model sees the same input distribution online
        # (Fig. 13b identifies this as the best practical configuration).
        future = system_state.predict(data.state)
        predictor.fit(
            data.state, data.signature, data.mode, future, data.targets,
            epochs=budget.epochs_performance,
        )
        models[kind] = predictor

    return Predictor(
        system_state=system_state,
        be_performance=models[WorkloadKind.BEST_EFFORT],
        lc_performance=models[WorkloadKind.LATENCY_CRITICAL],
        signatures=signatures,
        feature_config=config,
    )


class Orchestrator:
    """Online Adrias orchestrator: policy wrapper with bookkeeping."""

    def __init__(self, policy: AdriasPolicy) -> None:
        self.policy = policy
        self.decisions: list[tuple[str, MemoryMode]] = []

    def schedule(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        """Scenario-compatible scheduler hook."""
        # Route through __call__ so decisions hit the obs audit/metrics.
        mode = self.policy(profile, engine)
        if profile.kind is not WorkloadKind.INTERFERENCE:
            self.decisions.append((profile.name, mode))
        return mode

    def __call__(self, profile: WorkloadProfile, engine: ClusterEngine) -> MemoryMode:
        return self.schedule(profile, engine)

    @property
    def offload_fraction(self) -> float:
        if not self.decisions:
            return 0.0
        remote = sum(1 for _, m in self.decisions if m is MemoryMode.REMOTE)
        return remote / len(self.decisions)
