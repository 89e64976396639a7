import pytest

from repro.cluster import CapacityError, ClusterEngine
from repro.cluster.scenario import default_pool
from repro.hardware import NodeConfig, ResourceDemand, Testbed, TestbedConfig
from repro.workloads import MemoryMode, WorkloadKind, ibench_profile, spark_profile


@pytest.fixture
def engine():
    return ClusterEngine(testbed=Testbed(TestbedConfig(counter_noise=0.0)))


class TestTick:
    def test_clock_advances_by_dt(self, engine):
        engine.tick()
        assert engine.now == pytest.approx(1.0)
        engine.run_for(9.0)
        assert engine.now == pytest.approx(10.0)

    def test_trace_grows_per_tick(self, engine):
        engine.run_for(5.0)
        assert len(engine.trace) == 5

    def test_app_ids_unique_and_increasing(self, engine):
        a = engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        b = engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        assert b.app_id == a.app_id + 1

    def test_run_backwards_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.run_for(-1.0)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            ClusterEngine(dt=0.0)


class TestCapacity:
    def test_local_capacity_enforced(self):
        small = TestbedConfig(node=NodeConfig(dram_gb=10.0))
        engine = ClusterEngine(testbed=Testbed(small))
        engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)  # 8 GB
        with pytest.raises(CapacityError):
            engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)

    def test_remote_capacity_enforced(self):
        small = TestbedConfig(node=NodeConfig(remote_gb=10.0))
        engine = ClusterEngine(testbed=Testbed(small))
        engine.deploy(spark_profile("scan"), MemoryMode.REMOTE)
        with pytest.raises(CapacityError):
            engine.deploy(spark_profile("scan"), MemoryMode.REMOTE)

    def test_finished_deployments_release_capacity(self):
        small = TestbedConfig(node=NodeConfig(dram_gb=10.0))
        engine = ClusterEngine(testbed=Testbed(small))
        engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        engine.run_until_idle()
        engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)  # fits again

    def test_fits_and_used_capacity(self, engine):
        assert engine.used_capacity_gb(MemoryMode.LOCAL) == 0.0
        engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        assert engine.used_capacity_gb(MemoryMode.LOCAL) == 8.0
        assert engine.fits(spark_profile("scan"), MemoryMode.LOCAL)


class TestContention:
    def test_colocated_apps_slow_each_other(self, engine):
        solo_runtime = engine.measure_isolated(
            spark_profile("pagerank"), MemoryMode.LOCAL
        )
        for _ in range(8):
            engine.deploy(ibench_profile("l3"), MemoryMode.LOCAL, duration_s=1e6)
        target = engine.deploy(spark_profile("pagerank"), MemoryMode.LOCAL)
        while target.running:
            engine.tick()
        assert target.record().runtime_s > solo_runtime * 1.05

    def test_pressure_with_hypothetical(self, engine):
        baseline = engine.current_pressure()
        with_app = engine.pressure_with(spark_profile("lr"), MemoryMode.REMOTE)
        assert with_app.link.offered_gbps > baseline.link.offered_gbps
        # The hypothetical must not mutate the engine.
        assert engine.current_pressure().link.offered_gbps == pytest.approx(
            baseline.link.offered_gbps
        )

    def test_measure_isolated_does_not_touch_engine(self, engine):
        engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        before = len(engine.deployments)
        engine.measure_isolated(spark_profile("lr"), MemoryMode.LOCAL)
        assert len(engine.deployments) == before


class TestDemandAggregate:
    def test_steady_tick_demand_work_does_not_grow_with_running_set(
        self, monkeypatch
    ):
        # Pressure reads the engine's kept aggregate, so a tick with no
        # placement and no finish builds the same number of demands
        # however many apps are in flight.
        built = []
        validate = ResourceDemand.__post_init__

        def counted(demand):
            built.append(demand)
            validate(demand)

        long_running = [
            profile.with_overrides(nominal_runtime_s=1e6)
            for profile in default_pool()
            if profile.kind is WorkloadKind.BEST_EFFORT
        ]

        def built_per_tick(n_apps: int) -> float:
            engine = ClusterEngine(
                testbed=Testbed(TestbedConfig(counter_noise=0.0))
            )
            for index, profile in enumerate(long_running[:n_apps]):
                engine.deploy(profile, list(MemoryMode)[index % 2])
            monkeypatch.setattr(ResourceDemand, "__post_init__", counted)
            built.clear()
            for _ in range(50):
                engine.tick()
            monkeypatch.undo()
            assert len(engine.running) == n_apps
            return len(built) / 50

        assert built_per_tick(2) == built_per_tick(12)


class TestHooks:
    def test_on_finish_called_with_record(self, engine):
        seen = []
        engine.on_finish = seen.append
        engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        engine.run_until_idle()
        assert len(seen) == 1
        assert seen[0].name == "scan"

    def test_work_placed_by_on_finish_stays_in_flight(self, engine):
        # The hook runs inside the tick's advance loop: the finished
        # deployment has already left the in-flight list, and what the
        # hook places joins it behind the survivors.
        seen = []

        def place_next(record):
            seen.append([d.app_id for d in engine.running])
            engine.deploy(spark_profile("lr"), MemoryMode.LOCAL)

        engine.on_finish = place_next
        short = engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        survivor = engine.deploy(spark_profile("gmm"), MemoryMode.LOCAL)
        while short.running:
            engine.tick()
        assert seen == [[survivor.app_id]]
        assert [d.app_id for d in engine.running] == [survivor.app_id, 2]
        assert [d.profile.name for d in engine.running] == ["gmm", "lr"]

    def test_run_until_idle_timeout(self, engine):
        engine.deploy(ibench_profile("cpu"), MemoryMode.LOCAL, duration_s=1e9)
        with pytest.raises(RuntimeError):
            engine.run_until_idle(max_seconds=5.0)


class TestTickHooks:
    def test_hook_runs_at_end_of_every_tick(self, engine):
        seen = []
        engine.add_tick_hook(lambda eng: seen.append(eng.now))
        engine.run_for(3.0)
        assert seen == [pytest.approx(t) for t in (1.0, 2.0, 3.0)]

    def test_add_is_idempotent(self, engine):
        calls = []

        def hook(eng):
            calls.append(eng)

        engine.add_tick_hook(hook)
        engine.add_tick_hook(hook)
        engine.tick()
        assert len(calls) == 1

    def test_remove_stops_and_is_safe(self, engine):
        calls = []

        def hook(eng):
            calls.append(eng)

        engine.add_tick_hook(hook)
        engine.tick()
        engine.remove_tick_hook(hook)
        engine.tick()
        assert len(calls) == 1
        engine.remove_tick_hook(hook)  # not registered: no-op

    def test_hook_sees_appended_trace_sample(self, engine):
        lengths = []
        engine.add_tick_hook(lambda eng: lengths.append(len(eng.trace.times)))
        engine.run_for(2.0)
        assert lengths == [1, 2]  # hooks fire after the trace append
