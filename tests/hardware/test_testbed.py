import numpy as np
import pytest

from repro.hardware import (
    NodeConfig,
    ResourceDemand,
    Testbed,
    TestbedConfig,
)


@pytest.fixture
def testbed():
    return Testbed(TestbedConfig(counter_noise=0.0))


class TestResourceDemand:
    def test_addition(self):
        a = ResourceDemand(cpu_threads=2, llc_mb=1, remote_bw_gbps=0.5)
        b = ResourceDemand(cpu_threads=3, local_bw_gbps=4)
        total = a + b
        assert total.cpu_threads == 5
        assert total.llc_mb == 1
        assert total.local_bw_gbps == 4
        assert total.remote_bw_gbps == 0.5

    def test_total_of_empty_list(self):
        total = ResourceDemand.total([])
        assert total.cpu_threads == 0

    def test_negative_field_raises(self):
        with pytest.raises(ValueError):
            ResourceDemand(cpu_threads=-1)


class TestResolve:
    def test_empty_system_is_calm(self, testbed):
        pressure = testbed.resolve([])
        assert pressure.cpu_utilization == 0.0
        assert pressure.llc.miss_inflation == 0.0
        assert pressure.link.offered_gbps == 0.0
        assert pressure.cpu_oversubscription == 0.0

    def test_cpu_utilization(self, testbed):
        demands = [ResourceDemand(cpu_threads=32.0), ResourceDemand(cpu_threads=48.0)]
        pressure = testbed.resolve(demands)
        assert pressure.cpu_utilization == pytest.approx(80 / 64)
        assert pressure.cpu_oversubscription == pytest.approx(16 / 64)

    def test_total_demand_recorded(self, testbed):
        demands = [ResourceDemand(remote_bw_gbps=1.0, llc_access_gbps=2.0)] * 3
        pressure = testbed.resolve(demands)
        assert pressure.total_demand.remote_bw_gbps == pytest.approx(3.0)
        assert pressure.total_demand.llc_access_gbps == pytest.approx(6.0)

    def test_local_capacity_guard(self, testbed):
        with pytest.raises(MemoryError):
            testbed.resolve([ResourceDemand(local_gb=2000.0)])

    def test_remote_capacity_guard(self, testbed):
        with pytest.raises(MemoryError):
            testbed.resolve([ResourceDemand(remote_gb=600.0)])

    def test_custom_node_config(self):
        testbed = Testbed(TestbedConfig(node=NodeConfig(logical_cores=8)))
        pressure = testbed.resolve([ResourceDemand(cpu_threads=8.0)])
        assert pressure.cpu_utilization == pytest.approx(1.0)


class TestCounters:
    def test_counters_reflect_pressure(self, testbed):
        busy = testbed.resolve(
            [ResourceDemand(llc_access_gbps=8.0, local_bw_gbps=40.0,
                            remote_bw_gbps=2.0)]
        )
        idle = testbed.resolve([])
        busy_counters = testbed.sample_counters(busy)
        idle_counters = testbed.sample_counters(idle)
        assert np.all(busy_counters[:6] > idle_counters[:6])

    def test_noise_config_respected(self):
        noisy = Testbed(TestbedConfig(counter_noise=0.1, seed=1))
        demand = [ResourceDemand(llc_access_gbps=5.0, local_bw_gbps=10.0)]
        p = noisy.resolve(demand)
        a = noisy.sample_counters(p)
        b = noisy.sample_counters(p)
        assert not np.allclose(a, b)  # fresh noise draw per sample


class TestNodeConfigValidation:
    def test_rejects_bad_latency_ordering(self):
        with pytest.raises(ValueError):
            NodeConfig(dram_latency_ns=900.0, remote_latency_ns=80.0)

    def test_rejects_nonpositive_resources(self):
        with pytest.raises(ValueError):
            NodeConfig(logical_cores=0)
        with pytest.raises(ValueError):
            NodeConfig(llc_mb=0.0)

    def test_testbed_config_noise_bounds(self):
        with pytest.raises(ValueError):
            TestbedConfig(counter_noise=1.5)
