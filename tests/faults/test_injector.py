"""FaultInjector wiring, link/telemetry/predictor effects and inertness."""

import numpy as np
import pytest

from repro.cluster.engine import ClusterEngine, RemoteUnavailableError
from repro.faults.errors import InferenceTimeout
from repro.faults.injector import FaultInjector, PredictorChaos
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hardware import Testbed, TestbedConfig
from repro.workloads import MemoryMode, ibench_profile, spark_profile


def plan_of(*specs, seed=7):
    return FaultPlan(faults=tuple(specs), seed=seed)


def make_engine(seed=0):
    return ClusterEngine(testbed=Testbed(TestbedConfig(seed=seed)))


#: A remote app offering 2 Gbps to the 2.5 Gbps channel.
HEAVY = spark_profile("scan").with_overrides(remote_bw_gbps=2.0)


def remote_link(engine):
    """The link state if ``HEAVY`` were placed remote on ``engine``."""
    return engine.pressure_with(HEAVY, MemoryMode.REMOTE).link


class TestAttachDetach:
    def test_attach_sets_link_fault_and_detach_clears_it(self):
        engine = make_engine()
        original_link = engine.testbed.link
        injector = FaultInjector(
            plan_of(
                FaultSpec(
                    kind="link_degrade", start_s=0.0, duration_s=100.0,
                    params={"capacity_factor": 0.5, "latency_factor": 1.5},
                )
            ),
            scenario_seed=1,
        )
        injector.attach(engine)
        assert engine.link_fault == (0.5, 1.5)
        assert engine.testbed.link is original_link
        injector.detach()
        assert engine.link_fault == (1.0, 1.0)
        assert not engine._tick_hooks
        injector.detach()  # idempotent

    def test_double_attach_rejected(self):
        engine = make_engine()
        injector = FaultInjector(plan_of())
        injector.attach(engine)
        with pytest.raises(RuntimeError, match="already attached"):
            injector.attach(engine)

    def test_detach_clears_predictor_chaos_and_remote_block(self):
        class FakePredictor:
            chaos = None

        engine = make_engine()
        predictor = FakePredictor()
        injector = FaultInjector(
            plan_of(
                FaultSpec(kind="link_outage", start_s=0.0, duration_s=50.0)
            )
        )
        injector.attach(engine, predictor=predictor)
        assert isinstance(predictor.chaos, PredictorChaos)
        assert engine.remote_blocked  # window opens at t=0
        injector.detach()
        assert predictor.chaos is None
        assert not engine.remote_blocked


class TestLinkFaults:
    def test_degrade_window_scales_capacity_and_latency(self):
        engine = make_engine()
        injector = FaultInjector(
            plan_of(
                FaultSpec(
                    kind="link_degrade", start_s=0.0, duration_s=100.0,
                    params={"capacity_factor": 0.5, "latency_factor": 1.5},
                )
            )
        )
        healthy = remote_link(engine)
        injector.attach(engine)
        degraded = remote_link(engine)
        assert degraded.delivered_gbps == pytest.approx(1.25)  # 2.5 * 0.5
        assert degraded.utilization == pytest.approx(2.0 / 1.25)
        assert degraded.latency_cycles > healthy.latency_cycles
        # After the window the link is healthy again.
        engine.run_for(150.0)
        assert remote_link(engine) == healthy

    def test_outage_delivers_only_drain_trickle_and_blocks_remote(self):
        engine = make_engine()
        injector = FaultInjector(
            plan_of(
                FaultSpec(kind="link_outage", start_s=10.0, duration_s=30.0)
            )
        )
        injector.attach(engine)
        assert not engine.remote_blocked
        engine.run_for(15.0)
        assert engine.remote_blocked
        state = remote_link(engine)
        # Only the FPGA back-pressure drain survives: 2% of 2.5 Gbps.
        assert state.delivered_gbps == pytest.approx(2.5 * 0.02)
        assert state.backpressure == pytest.approx(2.0 / (2.5 * 0.02))
        with pytest.raises(RemoteUnavailableError):
            engine.deploy(spark_profile("scan"), MemoryMode.REMOTE)
        engine.run_for(30.0)  # window closes
        assert not engine.remote_blocked
        engine.deploy(spark_profile("scan"), MemoryMode.REMOTE)


    @pytest.mark.parametrize("outage_first", [False, True])
    def test_outage_wins_over_an_overlapping_degrade(self, outage_first):
        # The windows FaultPlan.sample(seed=0) draws: the outage opens
        # while the degrade is still active.
        degrade = FaultSpec(
            kind="link_degrade", start_s=254.8, duration_s=96.4,
            params={"capacity_factor": 0.5, "latency_factor": 1.5},
        )
        outage = FaultSpec(
            kind="link_outage", start_s=338.2, duration_s=60.0,
            params={"latency_factor": 1.0},
        )
        engine = make_engine()
        specs = (outage, degrade) if outage_first else (degrade, outage)
        FaultInjector(plan_of(*specs)).attach(engine)
        alone = make_engine()
        FaultInjector(plan_of(outage)).attach(alone)
        engine.run_for(345.0)
        alone.run_for(345.0)
        assert engine.remote_blocked
        assert engine.link_fault == (0.0, 1.0)
        cut = remote_link(engine)
        assert cut == remote_link(alone)
        assert cut.delivered_gbps == pytest.approx(2.5 * 0.02)


class TestTelemetryFaults:
    def test_dropout_blanks_whole_rows(self):
        engine = make_engine()
        injector = FaultInjector(
            plan_of(
                FaultSpec(
                    kind="telemetry_dropout", start_s=5.0, duration_s=20.0,
                    params={"probability": 1.0},
                )
            )
        )
        injector.attach(engine)
        engine.run_for(40.0)
        rows = engine.trace.metrics
        times = engine.trace.times
        in_window = [r for t, r in zip(times, rows) if 5.0 <= t < 25.0 + 1.0]
        outside = [r for t, r in zip(times, rows) if t < 5.0 or t > 26.0]
        assert any(np.isnan(r).all() for r in in_window)
        assert all(np.isfinite(r).all() for r in outside)
        assert injector.injected["telemetry_dropped_samples"] > 0

    def test_corrupt_plants_partial_nans(self):
        engine = make_engine()
        injector = FaultInjector(
            plan_of(
                FaultSpec(
                    kind="telemetry_corrupt", start_s=0.0, duration_s=30.0,
                    params={"probability": 0.3},
                )
            ),
            scenario_seed=3,
        )
        injector.attach(engine)
        engine.run_for(30.0)
        rows = engine.trace.metrics
        nan_counts = [int(np.isnan(r).sum()) for r in rows]
        assert injector.injected["telemetry_corrupted_values"] == sum(nan_counts)
        assert sum(nan_counts) > 0
        # p = 0.3 should leave most rows partially intact.
        assert any(0 < n < rows.shape[1] for n in nan_counts)


    def test_noise_free_rows_are_hit_one_tick_at_a_time(self):
        # Without counter noise a steady engine samples one noise-free
        # row, derived once for its unchanging pressure; the faults write
        # the trace's newest row in place and must leave every other tick
        # whole.
        engine = ClusterEngine(
            testbed=Testbed(TestbedConfig(seed=0, counter_noise=0.0))
        )
        engine.deploy(ibench_profile("memBw"), MemoryMode.REMOTE, duration_s=500.0)
        injector = FaultInjector(
            plan_of(
                FaultSpec(
                    kind="telemetry_dropout", start_s=10.0, duration_s=1.0,
                    params={"probability": 1.0},
                ),
                FaultSpec(
                    kind="telemetry_corrupt", start_s=20.0, duration_s=1.0,
                    params={"probability": 1.0},
                ),
            )
        )
        injector.attach(engine)
        engine.run_for(30.0)
        rows = engine.trace.metrics
        for time, row in zip(engine.trace.times, rows):
            if time in (10.0, 20.0):
                assert np.isnan(row).all(), time
            else:
                assert np.array_equal(row, rows[0]), time


class TestPredictorChaos:
    def _injector_at(self, spec, now=10.0):
        engine = make_engine()
        injector = FaultInjector(plan_of(spec))
        injector.attach(engine)
        engine.run_for(now)
        return injector

    def test_delay_over_deadline_raises_timeout(self):
        injector = self._injector_at(
            FaultSpec(
                kind="predictor_delay", start_s=0.0, duration_s=60.0,
                params={"latency_s": 5.0},
            )
        )
        chaos = PredictorChaos(injector)
        with pytest.raises(InferenceTimeout) as excinfo:
            chaos.before_inference("be", deadline_s=1.0)
        assert excinfo.value.latency_s == 5.0
        assert excinfo.value.deadline_s == 1.0
        # No deadline -> slow but not fatal.
        chaos.before_inference("be", deadline_s=None)
        # Deadline above the injected latency -> fine.
        chaos.before_inference("be", deadline_s=10.0)

    def test_nan_corruption_replaces_estimates(self):
        injector = self._injector_at(
            FaultSpec(
                kind="predictor_nan", start_s=0.0, duration_s=60.0,
                params={"probability": 1.0, "value": "nan"},
            )
        )
        chaos = PredictorChaos(injector)
        out = chaos.corrupt_output("be", np.array([12.0, 40.0]))
        assert np.isnan(out).all()

    def test_inf_corruption(self):
        injector = self._injector_at(
            FaultSpec(
                kind="predictor_nan", start_s=0.0, duration_s=60.0,
                params={"probability": 1.0, "value": "inf"},
            )
        )
        out = PredictorChaos(injector).corrupt_output("lc", np.array([3.0]))
        assert np.isinf(out).all()

    def test_outside_window_is_identity(self):
        injector = self._injector_at(
            FaultSpec(
                kind="predictor_nan", start_s=100.0, duration_s=10.0,
                params={"probability": 1.0},
            ),
            now=10.0,
        )
        values = np.array([12.0, 40.0])
        out = PredictorChaos(injector).corrupt_output("be", values)
        assert out is values


class TestInertness:
    def test_empty_plan_leaves_run_bit_identical(self):
        plain = make_engine(seed=5)
        plain.deploy(spark_profile("scan"), MemoryMode.REMOTE)
        plain.run_for(60.0)

        injected = make_engine(seed=5)
        injector = FaultInjector(plan_of(), scenario_seed=5)
        rng_before = injector.rng.bit_generator.state["state"]
        injector.attach(injected)
        injected.deploy(spark_profile("scan"), MemoryMode.REMOTE)
        injected.run_for(60.0)

        assert np.array_equal(plain.trace.metrics, injected.trace.metrics)
        assert plain.trace.times == injected.trace.times
        # The fault RNG was never consulted.
        assert injector.rng.bit_generator.state["state"] == rng_before

    def test_windows_beyond_horizon_are_inert(self):
        spec = FaultSpec(
            kind="telemetry_dropout", start_s=500.0, duration_s=10.0,
            params={"probability": 1.0},
        )
        plain = make_engine(seed=6)
        plain.run_for(50.0)
        injected = make_engine(seed=6)
        FaultInjector(plan_of(spec), scenario_seed=6).attach(injected)
        injected.run_for(50.0)
        assert np.array_equal(plain.trace.metrics, injected.trace.metrics)
