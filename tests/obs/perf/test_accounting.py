"""Phase accounting: laps, determinism, tick-total tiling, nesting, and
the timing histograms that observe its laps."""

import json

import pytest

from repro import obs
from repro.cluster.engine import ClusterEngine
from repro.cluster.failover import FleetHealthManager
from repro.cluster.fleet import ClusterFleet, LeastLoadedPlacement
from repro.cluster.scenario import ScenarioConfig, run_scenario
from repro.faults.plan import FaultPlan
from repro.hardware.config import TestbedConfig
from repro.hardware.pool import RemotePoolConfig
from repro.hardware.testbed import Testbed
from repro.obs.perf import (
    PHASE_NAMES,
    PhaseAccounting,
    accounting,
    disable_phases,
    enable_phases,
    is_envelope,
    phase_table,
    phases_session,
)
from repro.obs.perf.profile import congested_adrias
from repro.obs.tracing import SpanTracer
from repro.orchestrator.policies import AllLocalPolicy, RandomPolicy
from repro.workloads import MemoryMode, spark_profile
from tests.helpers import assert_traces_identical
from tests.nn.test_training import make_trainer, regression_problem


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_acct(tracer=None) -> tuple[PhaseAccounting, FakeClock]:
    acct = PhaseAccounting(tracer=tracer)
    clock = FakeClock()
    acct.clock = clock
    return acct, clock


class TestAccumulators:
    def test_lap_accumulates_and_returns_new_mark(self):
        acct, clock = make_acct()
        t = acct.clock()
        clock.advance(0.5)
        t = acct.lap("a", t)
        assert t == 0.5
        clock.advance(0.25)
        acct.lap("a", t)
        assert acct.total("a") == pytest.approx(0.75)
        assert acct.calls("a") == 2

    def test_consecutive_laps_tile_the_interval(self):
        acct, clock = make_acct()
        t = acct.clock()
        for name, dt in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
            clock.advance(dt)
            t = acct.lap(name, t)
        total = sum(acct.total(n) for n in ("a", "b", "c"))
        assert total == pytest.approx(clock.now)

    def test_add_and_phase_context_manager(self):
        # add() records an envelope without a clock read; envelopes are
        # not leaf time, so they never count as nested seconds.
        acct, clock = make_acct()
        t = acct.clock()
        clock.advance(2.0)
        acct.lap("block", t)
        acct.add("ext", 1.5)
        assert acct.total("ext") == pytest.approx(1.5)
        assert acct.calls("ext") == 1
        assert acct.recorded == pytest.approx(2.0)

    def test_unrecorded_phase_reads_zero(self):
        acct, _ = make_acct()
        assert acct.total("never") == 0.0
        assert acct.calls("never") == 0

    def test_snapshot_and_reset(self):
        acct, clock = make_acct()
        t = acct.clock()
        clock.advance(0.5)
        acct.lap("a", t)
        snap = acct.snapshot()
        assert snap["a"]["total_s"] == pytest.approx(0.5)
        assert snap["a"]["calls"] == 1
        assert snap["a"]["mean_us"] == pytest.approx(0.5e6)
        acct.reset()
        assert len(acct) == 0

    def test_table_ranks_and_excludes_tick_from_shares(self):
        acct, _ = make_acct()
        acct.add("engine.advance", 3.0)
        acct.add("engine.telemetry", 1.0)
        acct.add("engine.tick", 4.0)
        table = acct.table()
        lines = table.splitlines()
        # Ranked by total: tick envelope first, then the leaves.
        assert lines[1].startswith("engine.tick")
        assert "75.0%" in table  # advance share of the leaf total
        assert acct.table(top=1).count("\n") == 1  # header + one row

    def test_node_envelopes_are_not_leaves(self):
        assert is_envelope("engine.tick") and is_envelope("engine.tick[n3]")
        assert not is_envelope("engine.advance")
        table = phase_table({
            "engine.tick[n0]": {"total_s": 4.0, "calls": 2},
            "engine.advance": {"total_s": 4.0, "calls": 2},
        })
        assert table.splitlines()[1].endswith(" 0.0%")
        assert "100.0%" in table


class TestNestedLaps:
    """A lap around laps records its own time: each second counts once."""

    def test_nested_lap_subtracts_inner_laps(self):
        tracer = SpanTracer()
        acct, clock = make_acct(tracer=tracer)
        t0, inner = acct.clock(), acct.recorded
        clock.advance(1.0)
        t = acct.clock()
        clock.advance(3.0)
        acct.lap("predictor.forward", t)
        acct.lap("policy.decide", t0, nested=acct.recorded - inner)
        assert acct.total("policy.decide") == pytest.approx(1.0)
        assert acct.recorded == pytest.approx(clock.now)
        # The timeline mirror keeps the full, nesting interval.
        decide = tracer.spans("policy.decide")[0]
        assert decide["dur"] == pytest.approx(4.0e6)

    def test_decision_records_only_its_own_time(self):
        class TimedPolicy(AllLocalPolicy):
            """A 4 s decision containing 3 s of predictor laps."""

            def decide(self, profile, engine):
                acct = accounting()
                for name in ("predictor.window", "predictor.system_state",
                             "predictor.forward"):
                    t = acct.clock()
                    clock.advance(1.0)
                    acct.lap(name, t)
                clock.advance(1.0)
                return MemoryMode.LOCAL

        clock = FakeClock()
        with phases_session() as acct:
            acct.clock = clock
            TimedPolicy()(spark_profile("sort"), ClusterEngine())
        assert acct.total("policy.decide") == pytest.approx(1.0)
        leaves = [n for n in acct.snapshot() if not is_envelope(n)]
        assert sum(acct.total(n) for n in leaves) == pytest.approx(clock.now)
        shares = [
            float(line.split()[-1].rstrip("%"))
            for line in acct.table().splitlines()[1:]
        ]
        assert sum(shares) == pytest.approx(100.0)
        assert all(share == pytest.approx(25.0) for share in shares)


class TestModuleState:
    def test_disabled_by_default(self):
        assert accounting() is None

    def test_enable_disable_roundtrip(self):
        acct = enable_phases()
        assert accounting() is acct
        assert enable_phases() is acct  # idempotent
        disable_phases()
        assert accounting() is None

    def test_session_restores_and_nested_shares_outer(self):
        with phases_session() as outer:
            assert accounting() is outer
            with phases_session() as inner:
                assert inner is outer
            assert accounting() is outer  # inner exit keeps the session
        assert accounting() is None

    def test_obs_switches_phases_on_and_off(self):
        obs.enable()
        assert accounting() is not None
        obs.disable()
        assert accounting() is None

    def test_phases_session_opened_first_survives_obs_disable(self):
        with phases_session() as acct:
            obs.enable()
            assert accounting() is acct  # shared, not replaced
            obs.disable()
            assert accounting() is acct
        assert accounting() is None


class TestEngineInstrumentation:
    def run_engine(self, ticks: int = 120) -> ClusterEngine:
        engine = ClusterEngine(testbed=Testbed(TestbedConfig(seed=3)))
        engine.deploy(spark_profile("sort"), MemoryMode.LOCAL)
        engine.deploy(spark_profile("gmm"), MemoryMode.REMOTE)
        engine.run_for(float(ticks))
        return engine

    def test_phase_totals_sum_to_tick_total(self):
        with phases_session() as acct:
            self.run_engine()
        leaf_total = sum(
            acct.total(name)
            for name in PHASE_NAMES
            if name.startswith("engine.") and name != "engine.tick"
        )
        # Contiguous laps tile the tick exactly; only float summation
        # error separates the leaf sum from the recorded envelope.
        assert leaf_total == pytest.approx(acct.total("engine.tick"), rel=1e-6)
        assert acct.calls("engine.tick") == 120

    def test_disabled_run_is_bit_identical_to_enabled_run(self):
        config = ScenarioConfig(duration_s=180.0, seed=11)
        baseline = run_scenario(config, scheduler=RandomPolicy(seed=5))
        with phases_session():
            instrumented = run_scenario(config, scheduler=RandomPolicy(seed=5))
        assert_traces_identical(baseline, instrumented)

    def test_chrome_trace_export_round_trips(self):
        tracer = SpanTracer()
        with phases_session(tracer=tracer):
            self.run_engine(ticks=10)
        parsed = json.loads(tracer.to_json())
        events = [e for e in parsed["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} >= {
            "engine.arbitration", "engine.advance", "engine.telemetry",
        }
        assert all(e["cat"] == "perf" for e in events)
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in events)


class TestOneTimer:
    """The timing histograms observe the phase laps or the epoch span,
    so each sums to the phase total it mirrors."""

    def test_histogram_sums_equal_phase_totals(self):
        scenario, policy = congested_adrias(duration_s=240.0, hidden=4)
        with obs.session() as handles:
            acct = accounting()
            run_scenario(scenario, scheduler=policy)
            tick = handles.metrics.get("engine_tick_seconds")
            inference = handles.metrics.get("predictor_inference_seconds")
            assert acct.calls("predictor.forward") > 0
            assert tick.labels(node="n0").sum == acct.total("engine.tick")
            assert inference.labels(model="system_state_nested").sum == (
                acct.total("predictor.system_state")
            )
            forward = (
                inference.labels(model="be").sum
                + inference.labels(model="lc").sum
            )
            # The same laps, summed per label instead of interleaved.
            assert forward == pytest.approx(
                acct.total("predictor.forward"), rel=1e-12
            )
        assert accounting() is None

    def test_epoch_histogram_observes_the_epoch_span(self):
        from repro.nn import DataLoader

        trainer = make_trainer()
        with obs.session() as handles:
            trainer.fit(DataLoader(regression_problem(), batch_size=32), epochs=3)
            spans = handles.tracer.spans("nn.epoch")
            epochs = handles.metrics.get("nn_epoch_seconds")
            child = epochs.labels(model=trainer.name)
            assert child.count == len(spans) == 3
            assert child.sum == pytest.approx(
                sum(span["dur"] for span in spans) / 1e6, rel=1e-12
            )

    def test_every_recorded_phase_is_named(self):
        scenario, policy = congested_adrias(duration_s=60.0, hidden=4)
        fleet = ClusterFleet(n_nodes=2, pool=RemotePoolConfig())
        fleet.health = FleetHealthManager(
            FaultPlan(), scheduler=LeastLoadedPlacement(policy)
        )
        with phases_session() as acct:
            run_scenario(scenario, scheduler=policy)
            fleet.run_for(3.0)
        recorded = {
            name for name in acct.snapshot()
            if not name.startswith("engine.tick[")
        }
        assert {"fleet.health", "fleet.arbitration"} <= recorded
        assert recorded <= set(PHASE_NAMES)
