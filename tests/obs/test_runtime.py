import json

import numpy as np
import pytest

from repro import obs
from repro.cluster.engine import ClusterEngine
from repro.cluster.scenario import ScenarioConfig, run_scenario
from repro.obs.metrics import NullRegistry
from repro.obs.perf import accounting
from repro.workloads import MemoryMode, spark_profile


class TestLifecycle:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert isinstance(obs.metrics(), NullRegistry)
        assert accounting() is None

    def test_session_enables_and_restores(self):
        with obs.session() as handles:
            assert obs.enabled()
            assert obs.metrics() is handles.metrics
            assert accounting() is not None
        assert not obs.enabled()
        assert accounting() is None

    def test_nested_session_shares_collectors(self):
        with obs.session() as outer:
            with obs.session() as inner:
                assert inner.metrics is outer.metrics
            assert obs.enabled()  # inner exit must not tear down outer
        assert not obs.enabled()

    def test_enable_is_idempotent(self):
        try:
            first = obs.enable()
            second = obs.enable()
            assert first.metrics is second.metrics
        finally:
            obs.disable()

    def test_reset_clears_without_disabling(self):
        with obs.session() as handles:
            handles.metrics.counter("x_total").inc()
            ClusterEngine().tick()
            obs.reset()
            assert obs.enabled()
            assert len(handles.metrics) == 0
            # The phase laps the timing histograms mirror clear with them.
            assert len(accounting()) == 0


class TestEngineInstrumentation:
    def test_tick_metrics_collected(self):
        with obs.session() as handles:
            engine = ClusterEngine()
            engine.deploy(spark_profile("scan"), MemoryMode.REMOTE)
            engine.run_for(10.0)
            names = {f["name"] for f in handles.metrics.snapshot()}
            assert {
                "engine_ticks_total",
                "engine_running_apps",
                "engine_link_utilization",
                "engine_tick_seconds",
                "link_resolves_total",
                "link_latency_cycles",
            } <= names

    def test_outputs_identical_with_and_without_obs(self):
        # The acceptance bar: enabling observability must not perturb
        # simulation results (no RNG draws, no behavioural branches).
        config = ScenarioConfig(duration_s=200.0, seed=11)
        baseline = run_scenario(config)
        with obs.session():
            observed = run_scenario(config)
        assert np.array_equal(baseline.metrics, observed.metrics)
        assert [r.runtime_s for r in baseline.records] == [
            r.runtime_s for r in observed.records
        ]


class TestDump:
    def test_dump_is_atomic_under_write_failure(self, tmp_path, monkeypatch):
        """An injected os.replace failure must leave the previous dump
        intact and no temporary files behind."""
        out = tmp_path / "out"
        with obs.session():
            run_scenario(ScenarioConfig(duration_s=60.0, seed=4))
            obs.dump(out)
            before = (out / "metrics.json").read_text()

            def boom(src, dst):
                raise OSError("disk full")

            monkeypatch.setattr("repro.obs.fsio.os.replace", boom)
            with pytest.raises(OSError, match="disk full"):
                obs.dump(out)
        assert (out / "metrics.json").read_text() == before
        json.loads(before)  # still a complete, parseable artifact
        assert not list(out.glob("*.tmp"))

    def test_dump_writes_all_artifacts(self, tmp_path):
        with obs.session():
            run_scenario(ScenarioConfig(duration_s=120.0, seed=4))
            paths = obs.dump(tmp_path / "out")
        assert set(paths) == set(obs.ARTIFACT_NAMES)
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics["metrics"]  # non-empty
        trace = json.loads((tmp_path / "out" / "trace.json").read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        prom = (tmp_path / "out" / "metrics.prom").read_text()
        assert "# TYPE engine_ticks_total counter" in prom
