"""The interference model's one-evaluation path, bit for bit against its
per-call reference.

``SystemPressure`` derives the seven pressure terms once, when it is
built, and ``WorkloadProfile.slowdown`` reads them; ``Deployment.advance``
hands its one slowdown to the tail-latency model.  The references below
keep the arithmetic as it was when every call derived each term from the
resolved states and ``TailLatencyModel.sample`` evaluated the slowdown
twice, so the fast path must equal them with ``==``, not approximately.
"""

import numpy as np
import pytest

from repro.cluster.deployment import Deployment
from repro.cluster.scenario import default_pool
from repro.hardware import Testbed, TestbedConfig
from repro.tiers import MultiTierTestbed, TierAssignment, default_tiers, tier_slowdown
from repro.workloads import MemoryMode, WorkloadKind, WorkloadProfile
from repro.workloads.ibench import IBENCH_KINDS, ibench_profile
from repro.workloads.loadgen import (
    _RHO_CEILING,
    LatencySample,
    LoadGenConfig,
    TailLatencyModel,
)


def reference_slowdown(profile, pressure, mode):
    """``WorkloadProfile.slowdown`` deriving every term on each call."""
    sens = profile.sensitivity
    c_cpu = sens.cpu * max(0.0, pressure.cpu_utilization - 1.0)
    c_l2 = sens.l2 * pressure.l2.miss_inflation
    c_llc = sens.llc * pressure.llc.miss_inflation

    if mode is MemoryMode.LOCAL:
        c_mem = sens.membw * (pressure.memory.queuing_factor - 1.0)
        return 1.0 + c_cpu + c_l2 + c_llc + c_mem

    amplify = 1.0 + profile.stacking
    link = pressure.link
    link_penalty = sens.link * (
        profile.backpressure_weight * (link.backpressure - 1.0)
        + profile.latency_weight * link.latency_ratio
    )
    remote_llc = c_llc * (1.0 + 0.5 * min(1.0, link.utilization))
    return profile.remote_slowdown * (
        1.0 + amplify * (c_cpu + c_l2) + remote_llc + link_penalty
    )


def reference_sample(profile, pressure, mode, load_scale=1.0):
    """``TailLatencyModel.sample`` evaluating the slowdown twice: once
    for the stretch and once inside the utilization."""
    stretch = reference_slowdown(profile, pressure, mode)
    if load_scale < 0:
        raise ValueError("load_scale cannot be negative")
    rho = min(
        _RHO_CEILING,
        profile.nominal_rho * load_scale * reference_slowdown(profile, pressure, mode),
    )
    amplification = (1.0 - profile.nominal_rho) / (1.0 - rho)
    p99 = profile.base_p99_ms * stretch * amplification
    tail_stress = 1.0 + 1.5 * max(0.0, rho - profile.nominal_rho)
    p999 = p99 * profile.tail_ratio * tail_stress
    offered = profile.ops_per_sec * load_scale
    capacity = profile.ops_per_sec / profile.nominal_rho / stretch
    served = min(offered, capacity)
    return LatencySample(
        p99_ms=p99, p999_ms=p999, served_ops=served, offered_ops=offered
    )


#: Every profile a scenario draws, plus the four iBench kinds by name.
PROFILES = {
    profile.name: profile
    for profile in [*default_pool(), *(ibench_profile(k) for k in IBENCH_KINDS)]
}
LC_PROFILES = [p for p in PROFILES.values() if p.kind is WorkloadKind.LATENCY_CRITICAL]
#: Pool arbitration's capacity factors: healthy, throttled, outage.
CAPACITY_FACTORS = (1.0, 0.37, 0.0)
#: ``lc_client_sweep``'s client counts as load scales, and the nominal load.
CLIENTS = [100, 200, 400, 800, 1200]
LOAD_SCALES = (1.0, *(c / LoadGenConfig().total_clients for c in CLIENTS))


def demand_mixes():
    """Named demand mixes covering every pressure regime."""
    pool = list(PROFILES.values())
    trasher = {kind: ibench_profile(kind) for kind in IBENCH_KINDS}
    rng = np.random.default_rng(20)
    mixes = {
        "idle": [],
        "one-local": [PROFILES["redis"].demand(MemoryMode.LOCAL)],
        "one-remote": [PROFILES["sort"].demand(MemoryMode.REMOTE)],
        "cpu-oversubscribed": [trasher["cpu"].demand(MemoryMode.LOCAL)] * 24,
        "caches-thrashed": [trasher["l2"].demand(MemoryMode.LOCAL)] * 12
        + [trasher["l3"].demand(MemoryMode.LOCAL)] * 12,
        "dram-queued": [trasher["memBw"].demand(MemoryMode.LOCAL)] * 18,
        "link-saturated": [trasher["memBw"].demand(MemoryMode.REMOTE)] * 16,
        "link-saturated-by-apps": [p.demand(MemoryMode.REMOTE) for p in pool[:12]],
    }
    for index in range(12):
        picks = rng.choice(len(pool), size=int(rng.integers(2, 14)))
        modes = rng.random(len(picks)) < 0.5
        mixes[f"random-{index}"] = [
            pool[i].demand(MemoryMode.REMOTE if remote else MemoryMode.LOCAL)
            for i, remote in zip(picks, modes)
        ]
    return mixes


def resolved_pressures():
    testbed = Testbed(TestbedConfig(counter_noise=0.0))
    pressures = []
    for name, mix in demand_mixes().items():
        for factor in CAPACITY_FACTORS:
            pressure = testbed.resolve(mix, link_capacity_factor=factor)
            pressures.append(pytest.param(pressure, id=f"{name}@{factor}"))
    return pressures


PRESSURES = resolved_pressures()


def test_mixes_reach_every_regime():
    """The mixes exercise each term the model reads, not only zeros."""
    states = [param.values[0] for param in PRESSURES]
    assert any(p.cpu_utilization > 1.0 for p in states)
    assert any(p.l2.miss_inflation > 0 and p.llc.miss_inflation > 0 for p in states)
    assert any(p.memory.queuing_factor > 1.0 for p in states)
    assert any(p.link.utilization > 1.0 and p.link.backpressure > 1.0 for p in states)
    assert any(0.0 < p.link.latency_ratio for p in states)
    assert any(p.link.offered_gbps == 0.0 for p in states)


@pytest.mark.parametrize("pressure", PRESSURES)
def test_slowdown_matches_reference(pressure):
    for profile in PROFILES.values():
        for mode in MemoryMode:
            assert profile.slowdown(pressure, mode) == reference_slowdown(
                profile, pressure, mode
            ), (profile.name, mode)


def test_tier_slowdown_adapted_pressures_match_reference(monkeypatch):
    seen = []
    slowdown = WorkloadProfile.slowdown

    def spy(profile, pressure, mode):
        result = slowdown(profile, pressure, mode)
        seen.append((profile, pressure, mode, result))
        return result

    monkeypatch.setattr(WorkloadProfile, "slowdown", spy)
    testbed = MultiTierTestbed(default_tiers())
    tiers = list(testbed.tiers.values())
    busy = [
        TierAssignment(profile, tiers[i % len(tiers)].name)
        for i, profile in enumerate(list(PROFILES.values())[:15])
    ]
    for assignments in ([], busy[:3], busy):
        pressure = testbed.resolve(assignments)
        for profile in PROFILES.values():
            for tier in tiers:
                tier_slowdown(profile, pressure, tier)
    assert {mode for _, _, mode, _ in seen} == set(MemoryMode)
    for profile, adapted, mode, result in seen:
        assert result == reference_slowdown(profile, adapted, mode)


@pytest.mark.parametrize("pressure", PRESSURES)
def test_one_slowdown_tail_sample_matches_reference(pressure):
    for profile in LC_PROFILES:
        model = TailLatencyModel(profile)
        for mode in MemoryMode:
            stretch = profile.slowdown(pressure, mode)
            for scale in LOAD_SCALES:
                want = reference_sample(profile, pressure, mode, scale)
                assert model.sample_at(stretch, scale) == want, (profile.name, scale)
                assert model.sample(pressure, mode, scale) == want
            sweep = model.client_sweep(pressure, mode, CLIENTS)
            assert sweep == [
                reference_sample(profile, pressure, mode, scale)
                for scale in LOAD_SCALES[1:]
            ]


@pytest.mark.parametrize("pressure", PRESSURES[::3])
def test_advance_matches_reference(pressure):
    """One advance of every profile in both modes keeps the reference's
    slowdown, progress, tail samples and served operations."""
    dt = 1.0
    for profile in PROFILES.values():
        for mode in MemoryMode:
            deployment = Deployment(
                app_id=0, profile=profile, mode=mode, arrival_time=0.0
            )
            deployment.advance(dt, dt, pressure)
            want = reference_slowdown(profile, pressure, mode)
            assert deployment.mean_slowdown == want
            if profile.kind is WorkloadKind.LATENCY_CRITICAL:
                sample = reference_sample(profile, pressure, mode)
                assert deployment.p99_samples == [sample.p99_ms]
                assert deployment.p999_samples == [sample.p999_ms]
                assert deployment.served_ops == 0.0 + sample.served_ops * dt
            elif profile.kind is WorkloadKind.BEST_EFFORT:
                assert deployment.progress_s == 0.0 + dt / want

