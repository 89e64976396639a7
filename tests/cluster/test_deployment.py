import math

import pytest

from repro.cluster import ClusterEngine, Deployment
from repro.hardware import Testbed, TestbedConfig
from repro.workloads import MEMCACHED, MemoryMode, REDIS, ibench_profile, spark_profile


@pytest.fixture
def engine():
    return ClusterEngine(testbed=Testbed(TestbedConfig(counter_noise=0.0)))


class TestLifecycle:
    def test_be_finishes_at_nominal_runtime_in_isolation(self, engine):
        deployment = engine.deploy(spark_profile("wordcount"), MemoryMode.LOCAL)
        engine.run_until_idle()
        record = deployment.record()
        assert record.runtime_s == pytest.approx(40.0, abs=1.0)
        assert record.mode is MemoryMode.LOCAL
        assert math.isnan(record.p99_ms)

    def test_be_remote_takes_remote_slowdown_longer(self, engine):
        profile = spark_profile("nweight")
        deployment = engine.deploy(profile, MemoryMode.REMOTE)
        engine.run_until_idle()
        expected = profile.nominal_runtime_s * profile.remote_slowdown
        assert deployment.record().runtime_s == pytest.approx(expected, rel=0.02)

    def test_interference_runs_for_fixed_duration(self, engine):
        deployment = engine.deploy(
            ibench_profile("cpu"), MemoryMode.LOCAL, duration_s=30.0
        )
        engine.run_for(29.0)
        assert deployment.running
        engine.run_for(2.0)
        assert not deployment.running
        assert deployment.record().runtime_s == pytest.approx(30.0, abs=1.5)

    def test_lc_serves_request_budget(self, engine):
        deployment = engine.deploy(REDIS, MemoryMode.LOCAL)
        engine.run_until_idle()
        record = deployment.record()
        assert record.runtime_s == pytest.approx(REDIS.nominal_runtime_s, rel=0.02)
        assert record.p99_ms == pytest.approx(REDIS.base_p99_ms, rel=0.1)
        assert record.p999_ms > record.p99_ms

    def test_advance_after_finish_raises(self, engine):
        deployment = engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        engine.run_until_idle()
        with pytest.raises(RuntimeError):
            deployment.advance(engine.now, 1.0, engine.current_pressure())

    @pytest.mark.parametrize(
        "profile", [spark_profile("scan"), REDIS, ibench_profile("cpu")],
        ids=["best-effort", "latency-critical", "interference"],
    )
    def test_complete_early_finishes_on_the_next_tick(self, engine, profile):
        deployment = engine.deploy(profile, MemoryMode.LOCAL)
        engine.tick()
        deployment.complete_early()
        assert deployment.running
        engine.tick()
        assert not deployment.running
        assert engine.trace.records[-1].app_id == deployment.app_id

    def test_record_before_finish_raises(self, engine):
        deployment = engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        with pytest.raises(RuntimeError):
            deployment.record()


class TestValidation:
    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            Deployment(
                app_id=0,
                profile=spark_profile("scan"),
                mode=MemoryMode.LOCAL,
                arrival_time=-1.0,
            )

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            Deployment(
                app_id=0,
                profile=ibench_profile("cpu"),
                mode=MemoryMode.LOCAL,
                arrival_time=0.0,
                duration_s=0.0,
            )

    def test_bad_dt_rejected(self, engine):
        deployment = engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        with pytest.raises(ValueError):
            deployment.advance(1.0, 0.0, engine.current_pressure())


class TestAccounting:
    def test_mean_slowdown_tracked(self, engine):
        deployment = engine.deploy(spark_profile("nweight"), MemoryMode.REMOTE)
        engine.run_until_idle()
        record = deployment.record()
        assert record.mean_slowdown == pytest.approx(
            spark_profile("nweight").remote_slowdown, rel=0.02
        )

    def test_remote_deployment_accumulates_link_traffic(self, engine):
        deployment = engine.deploy(spark_profile("lr"), MemoryMode.REMOTE)
        engine.run_until_idle()
        record = deployment.record()
        profile = spark_profile("lr")
        expected = profile.remote_bw_gbps * record.runtime_s / 8.0
        assert record.link_traffic_gb == pytest.approx(expected, rel=0.05)

    def test_local_deployment_has_no_link_traffic(self, engine):
        deployment = engine.deploy(spark_profile("lr"), MemoryMode.LOCAL)
        engine.run_until_idle()
        assert deployment.record().link_traffic_gb == 0.0

    def test_performance_selects_kind_metric(self, engine):
        be = engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        lc = engine.deploy(MEMCACHED, MemoryMode.LOCAL)
        engine.run_until_idle()
        assert be.record().performance == be.record().runtime_s
        assert lc.record().performance == lc.record().p99_ms
