"""Determinism audit: seeded runs are bit-reproducible, fault arming is inert.

Two invariants the orchestration results rest on:

* the same scenario seed + the same (seeded) policy produce bit-identical
  traces and decision logs across runs;
* arming a fault plan whose windows never open (or an empty plan) leaves
  a run bit-identical to one executed without ``--faults`` at all.
"""

import numpy as np

from repro.cluster.scenario import ScenarioConfig, generate_arrivals, run_scenario
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.runtime import active_plan
from repro.orchestrator.policies import RandomPolicy, RoundRobinPolicy
from tests.helpers import assert_traces_identical

CONFIG = ScenarioConfig(duration_s=300.0, spawn_interval=(10.0, 25.0), seed=4)


class RecordingScheduler:
    """Wraps a policy and logs every (time, app, mode) decision."""

    def __init__(self, inner):
        self.inner = inner
        self.name = getattr(inner, "name", "wrapped")
        self.decisions = []

    def __call__(self, profile, engine):
        mode = self.inner(profile, engine)
        self.decisions.append((engine.now, profile.name, mode.value))
        return mode


class TestSeededReproducibility:
    def test_arrivals_regenerate_identically(self):
        a = generate_arrivals(CONFIG)
        b = generate_arrivals(CONFIG)
        assert [(x.time, x.profile.name, x.mode, x.duration_s) for x in a] == [
            (x.time, x.profile.name, x.mode, x.duration_s) for x in b
        ]

    def test_two_seeded_runs_bit_identical(self):
        first = RecordingScheduler(RandomPolicy(seed=9))
        second = RecordingScheduler(RandomPolicy(seed=9))
        trace_a = run_scenario(CONFIG, scheduler=first)
        trace_b = run_scenario(CONFIG, scheduler=second)
        assert_traces_identical(trace_a, trace_b)
        assert first.decisions == second.decisions
        assert first.decisions, "scenario must actually place workloads"

    def test_different_scenario_seeds_differ(self):
        other = ScenarioConfig(
            duration_s=300.0, spawn_interval=(10.0, 25.0), seed=5
        )
        trace_a = run_scenario(CONFIG, scheduler=RoundRobinPolicy())
        trace_b = run_scenario(other, scheduler=RoundRobinPolicy())
        assert trace_a.times != trace_b.times or any(
            not np.array_equal(x, y)
            for x, y in zip(trace_a.metrics, trace_b.metrics)
        )

    def test_counter_noise_reproducible_without_scheduler(self):
        trace_a = run_scenario(CONFIG)
        trace_b = run_scenario(CONFIG)
        assert_traces_identical(trace_a, trace_b)


class TestFaultArmingInertness:
    def test_empty_plan_is_inert(self):
        baseline_sched = RecordingScheduler(RandomPolicy(seed=9))
        baseline = run_scenario(CONFIG, scheduler=baseline_sched)
        armed_sched = RecordingScheduler(RandomPolicy(seed=9))
        with active_plan(FaultPlan(faults=(), seed=99)):
            armed = run_scenario(CONFIG, scheduler=armed_sched)
        assert_traces_identical(baseline, armed)
        assert baseline_sched.decisions == armed_sched.decisions

    def test_windows_past_horizon_are_inert(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    kind="telemetry_dropout",
                    start_s=10_000.0,
                    duration_s=60.0,
                    params={"probability": 1.0},
                ),
                FaultSpec(kind="link_outage", start_s=20_000.0, duration_s=60.0),
            ),
            seed=1,
        )
        baseline = run_scenario(CONFIG, scheduler=RandomPolicy(seed=9))
        with active_plan(plan):
            armed = run_scenario(CONFIG, scheduler=RandomPolicy(seed=9))
        assert_traces_identical(baseline, armed)

    def test_armed_plan_does_not_leak_across_runs(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    kind="telemetry_dropout", start_s=0.0, duration_s=300.0,
                    params={"probability": 1.0},
                ),
            ),
            seed=1,
        )
        with active_plan(plan):
            faulted = run_scenario(CONFIG, scheduler=RandomPolicy(seed=9))
        assert any(np.isnan(r).any() for r in faulted.metrics)
        # The context manager restored the no-plan state: this run is clean.
        clean = run_scenario(CONFIG, scheduler=RandomPolicy(seed=9))
        assert all(np.isfinite(r).all() for r in clean.metrics)

    def test_offline_collection_never_injected(self):
        # scheduler=None is the offline trace-collection path; fault
        # plans must not touch it even while armed.
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    kind="telemetry_dropout", start_s=0.0, duration_s=300.0,
                    params={"probability": 1.0},
                ),
            ),
            seed=1,
        )
        baseline = run_scenario(CONFIG)
        with active_plan(plan):
            armed = run_scenario(CONFIG)
        assert_traces_identical(baseline, armed)
