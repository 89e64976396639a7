import numpy as np
import pytest

from repro import obs
from repro.cluster import ClusterEngine
from repro.hardware import METRIC_NAMES, Testbed, TestbedConfig
from repro.telemetry import Watcher
from repro.workloads import MemoryMode, spark_profile


def sample(value: float) -> np.ndarray:
    return np.full(len(METRIC_NAMES), value)


class TestObserve:
    def test_history_window_shape(self):
        watcher = Watcher(history_capacity_s=100.0)
        for i in range(10):
            watcher.observe(float(i + 1), sample(i))
        window = watcher.history(20.0)
        assert window.shape == (20, len(METRIC_NAMES))
        assert np.allclose(window[-10:, 0], np.arange(10.0))
        assert np.allclose(window[:10, 0], 0.0)  # zero-padded warm-up

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Watcher().history(0.0)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            Watcher(dt=0.0)


class TestImputation:
    def test_nan_gaps_forward_fill_the_last_good_row(self):
        watcher = Watcher()
        watcher.observe(1.0, sample(2.0))
        gappy = sample(5.0)
        gappy[[1, 4]] = np.nan
        watcher.observe(2.0, gappy)
        dropped = np.full(len(METRIC_NAMES), np.nan)
        watcher.observe(3.0, dropped)
        want = sample(5.0)
        want[[1, 4]] = 2.0
        history = watcher.history(3.0)
        assert np.array_equal(history[0], sample(2.0))
        assert np.array_equal(history[1], want)
        assert np.array_equal(history[2], want)
        assert watcher.imputed_values == 2 + len(METRIC_NAMES)
        # The caller's rows are read, never written.
        assert np.isnan(gappy[[1, 4]]).all() and np.isnan(dropped).all()

    def test_gaps_before_any_good_row_fill_with_zeros(self):
        watcher = Watcher()
        watcher.observe(1.0, np.full(len(METRIC_NAMES), np.nan))
        assert np.array_equal(watcher.history(1.0)[0], sample(0.0))
        assert watcher.imputed_values == len(METRIC_NAMES)

    def test_imputations_exported(self):
        obs.enable()
        try:
            watcher = Watcher()
            gappy = sample(1.0)
            gappy[0] = np.nan
            watcher.observe(1.0, gappy)
            watcher.observe(2.0, gappy)
            family = obs.metrics().get("telemetry_imputed_values_total")
            assert family.snapshot()["series"][0]["value"] == 2
        finally:
            obs.disable()


class TestAttach:
    def test_mirrors_engine_trace_exactly(self):
        engine = ClusterEngine(testbed=Testbed(TestbedConfig(counter_noise=0.05)))
        watcher = Watcher()
        watcher.attach(engine)
        engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        engine.run_for(30.0)
        window = watcher.history(30.0)
        assert np.allclose(window, engine.trace.metrics[-30:])

    def test_attached_tick_still_returns_pressure(self):
        engine = ClusterEngine()
        watcher = Watcher()
        watcher.attach(engine)
        pressure = engine.tick()
        assert pressure.cpu_utilization == 0.0
        assert len(watcher.store) == 1

    def test_double_attach_is_idempotent(self):
        # Regression: re-attaching used to re-wrap engine.tick, so every
        # tick double-recorded (and push raised on the duplicate time).
        engine = ClusterEngine()
        watcher = Watcher()
        watcher.attach(engine)
        watcher.attach(engine)
        engine.run_for(5.0)
        assert len(watcher.store) == 5

    def test_two_watchers_each_record_once(self):
        engine = ClusterEngine()
        first, second = Watcher(), Watcher()
        first.attach(engine)
        second.attach(engine)
        first.attach(engine)  # re-attach after another watcher joined
        engine.run_for(4.0)
        assert len(first.store) == 4
        assert len(second.store) == 4
        assert np.allclose(first.history(4.0), second.history(4.0))

    def test_foreign_rewrap_raises(self):
        engine = ClusterEngine()
        Watcher().attach(engine)
        original = engine.tick
        engine.tick = lambda: original()  # someone re-wraps tick
        with pytest.raises(RuntimeError):
            Watcher().attach(engine)

    def test_detach_stops_recording(self):
        engine = ClusterEngine()
        watcher = Watcher()
        watcher.attach(engine)
        engine.run_for(3.0)
        watcher.detach(engine)
        engine.run_for(3.0)
        assert len(watcher.store) == 3
        watcher.detach(engine)  # safe when already detached
