import pytest

from repro.cluster.scenario import default_pool
from repro.hardware import ResourceDemand, Testbed, TestbedConfig
from repro.workloads import (
    MemoryMode,
    SensitivityVector,
    WorkloadKind,
    WorkloadProfile,
)


def make_profile(**overrides):
    defaults = dict(
        name="test-app",
        kind=WorkloadKind.BEST_EFFORT,
        nominal_runtime_s=100.0,
        remote_slowdown=1.5,
        cpu_threads=4.0,
        llc_mb=2.0,
        llc_access_gbps=2.0,
        mem_bw_gbps=5.0,
        remote_bw_gbps=0.5,
        footprint_gb=8.0,
        sensitivity=SensitivityVector(cpu=0.5, l2=0.2, llc=0.8, membw=0.6, link=1.0),
    )
    defaults.update(overrides)
    return WorkloadProfile(**defaults)


#: Profile fields that feed its resource demand.
DEMAND_FIELDS = (
    "cpu_threads", "l2_mb", "llc_mb", "llc_access_gbps", "mem_bw_gbps",
    "remote_bw_gbps", "footprint_gb",
)


@pytest.fixture
def testbed():
    return Testbed(TestbedConfig(counter_noise=0.0))


class TestMemoryMode:
    def test_other(self):
        assert MemoryMode.LOCAL.other is MemoryMode.REMOTE
        assert MemoryMode.REMOTE.other is MemoryMode.LOCAL


class TestValidation:
    def test_remote_slowdown_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_profile(remote_slowdown=0.9)

    def test_negative_demand_rejected(self):
        for name in DEMAND_FIELDS:
            with pytest.raises(ValueError, match=f"{name} cannot be negative"):
                make_profile(**{name: -1.0})

    def test_negative_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            SensitivityVector(cpu=-0.1)

    def test_nonpositive_runtime_rejected(self):
        with pytest.raises(ValueError):
            make_profile(nominal_runtime_s=0.0)


class TestDemand:
    def test_local_mode_uses_local_resources(self):
        profile = make_profile()
        demand = profile.demand(MemoryMode.LOCAL)
        assert demand.local_bw_gbps == 5.0
        assert demand.remote_bw_gbps == 0.0
        assert demand.local_gb == 8.0
        assert demand.remote_gb == 0.0

    def test_remote_mode_moves_traffic_to_link(self):
        profile = make_profile()
        demand = profile.demand(MemoryMode.REMOTE)
        assert demand.local_bw_gbps == 0.0
        assert demand.remote_bw_gbps == 0.5
        assert demand.remote_gb == 8.0
        assert demand.local_gb == 0.0

    def test_cache_demand_mode_independent(self):
        profile = make_profile()
        for mode in MemoryMode:
            demand = profile.demand(mode)
            assert demand.llc_mb == 2.0
            assert demand.cpu_threads == 4.0

    @pytest.mark.parametrize("mode", list(MemoryMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("profile", default_pool(), ids=lambda p: p.name)
    def test_kept_demand_equals_a_fresh_build(self, profile, mode):
        local = mode is MemoryMode.LOCAL
        fresh = ResourceDemand(
            cpu_threads=profile.cpu_threads,
            l2_mb=profile.l2_mb,
            llc_mb=profile.llc_mb,
            llc_access_gbps=profile.llc_access_gbps,
            local_bw_gbps=profile.mem_bw_gbps if local else 0.0,
            remote_bw_gbps=0.0 if local else profile.remote_bw_gbps,
            local_gb=profile.footprint_gb if local else 0.0,
            remote_gb=0.0 if local else profile.footprint_gb,
        )
        assert profile.demand(mode) == fresh

    def test_overrides_rebuild_the_demand(self):
        profile = make_profile()
        bigger = profile.with_overrides(footprint_gb=32.0)
        assert bigger.demand(MemoryMode.LOCAL).local_gb == 32.0
        assert bigger.demand(MemoryMode.REMOTE).remote_gb == 32.0
        assert profile.demand(MemoryMode.LOCAL).local_gb == 8.0


class TestSlowdown:
    def test_isolation_local_is_one(self, testbed):
        profile = make_profile()
        pressure = testbed.resolve([profile.demand(MemoryMode.LOCAL)])
        assert profile.slowdown(pressure, MemoryMode.LOCAL) == pytest.approx(1.0)

    def test_isolation_remote_is_remote_slowdown(self, testbed):
        profile = make_profile()
        pressure = testbed.resolve([profile.demand(MemoryMode.REMOTE)])
        assert profile.slowdown(pressure, MemoryMode.REMOTE) == pytest.approx(
            1.5, rel=0.02
        )

    def test_slowdown_at_least_one(self, testbed):
        from repro.hardware import ResourceDemand

        profile = make_profile()
        heavy = testbed.resolve(
            [ResourceDemand(cpu_threads=128, llc_mb=60, local_bw_gbps=110,
                            remote_bw_gbps=12)]
        )
        assert profile.slowdown(heavy, MemoryMode.LOCAL) >= 1.0
        assert profile.slowdown(heavy, MemoryMode.REMOTE) >= 1.5

    def test_insensitive_profile_ignores_pressure(self, testbed):
        from repro.hardware import ResourceDemand

        stoic = make_profile(sensitivity=SensitivityVector(0, 0, 0, 0, 0),
                             remote_slowdown=1.0)
        heavy = testbed.resolve(
            [ResourceDemand(cpu_threads=128, llc_mb=60, local_bw_gbps=110,
                            remote_bw_gbps=12)]
        )
        assert stoic.slowdown(heavy, MemoryMode.LOCAL) == pytest.approx(1.0)
        assert stoic.slowdown(heavy, MemoryMode.REMOTE) == pytest.approx(1.0)

    def test_stacking_amplifies_cpu_interference_on_remote(self, testbed):
        from repro.hardware import ResourceDemand

        plain = make_profile(stacking=0.0)
        stacker = make_profile(stacking=0.8)
        pressure = testbed.resolve([ResourceDemand(cpu_threads=96.0)])
        assert stacker.slowdown(pressure, MemoryMode.REMOTE) > plain.slowdown(
            pressure, MemoryMode.REMOTE
        )
        # Stacking is a remote-only phenomenon (R7).
        assert stacker.slowdown(pressure, MemoryMode.LOCAL) == pytest.approx(
            plain.slowdown(pressure, MemoryMode.LOCAL)
        )


class TestConvenience:
    def test_isolated_runtime(self):
        profile = make_profile()
        assert profile.isolated_runtime(MemoryMode.LOCAL) == 100.0
        assert profile.isolated_runtime(MemoryMode.REMOTE) == 150.0

    def test_with_overrides(self):
        profile = make_profile()
        tweaked = profile.with_overrides(nominal_runtime_s=50.0)
        assert tweaked.nominal_runtime_s == 50.0
        assert tweaked.name == profile.name
        assert profile.nominal_runtime_s == 100.0  # original untouched
