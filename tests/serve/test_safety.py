"""Safety-envelope schema validation and monitor verdicts."""

import json

import pytest

from repro import obs
from repro.cluster.engine import ClusterEngine
from repro.cluster.fleet import ClusterFleet
from repro.faults.breaker import CircuitBreaker
from repro.hardware.pool import RemotePoolConfig
from repro.obs.live.slo import SloEngine
from repro.serve.safety import (
    SafetyConfigError,
    SafetyConstraint,
    SafetyEnvelope,
    SafetyMonitor,
)
from repro.workloads import MemoryMode
from repro.workloads.registry import be_profiles, lc_profiles


def profile_be():
    return list(be_profiles().values())[0]


def profile_lc():
    return lc_profiles()["redis"]


class TestConstraintValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SafetyConfigError, match="unknown safety"):
            SafetyConstraint("max_cpu_heat", 0.5)

    def test_unknown_action_rejected(self):
        with pytest.raises(SafetyConfigError, match="action"):
            SafetyConstraint("max_link_utilization", 0.5, action="explode")

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_fraction_limits_enforced(self, bad):
        with pytest.raises(SafetyConfigError):
            SafetyConstraint("max_link_utilization", bad)

    def test_burn_limit_must_be_positive(self):
        with pytest.raises(SafetyConfigError):
            SafetyConstraint("max_qos_burn_rate", 0.0)

    @pytest.mark.parametrize("bad", [0, 0.5, 2.5])
    def test_concurrency_limit_must_be_whole(self, bad):
        with pytest.raises(SafetyConfigError):
            SafetyConstraint("max_concurrent_remote", bad)

    def test_breaker_gate_takes_no_limit(self):
        with pytest.raises(SafetyConfigError, match="no limit"):
            SafetyConstraint("breaker_closed", 1.0)

    def test_limit_required_for_utilization(self):
        with pytest.raises(SafetyConfigError, match="requires a limit"):
            SafetyConstraint("max_link_utilization")


class TestEnvelopeSerialization:
    def test_round_trip(self):
        envelope = SafetyEnvelope.sample()
        again = SafetyEnvelope.from_dict(envelope.to_dict())
        assert again == envelope

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "env.json"
        SafetyEnvelope.sample().to_file(path)
        assert SafetyEnvelope.from_file(path) == SafetyEnvelope.sample()

    def test_wrong_version_rejected(self):
        with pytest.raises(SafetyConfigError, match="version"):
            SafetyEnvelope.from_dict({"version": 99, "constraints": []})

    def test_unknown_constraint_field_rejected(self):
        with pytest.raises(SafetyConfigError, match="unknown fields"):
            SafetyEnvelope.from_dict(
                {"constraints": [{"kind": "breaker_closed", "wat": 1}]}
            )

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text("{nope")
        with pytest.raises(SafetyConfigError, match="corrupt"):
            SafetyEnvelope.from_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SafetyConfigError, match="no safety envelope"):
            SafetyEnvelope.from_file(tmp_path / "nope.json")


class TestMonitorVerdicts:
    def test_local_candidates_always_admit(self):
        monitor = SafetyMonitor(
            SafetyEnvelope((SafetyConstraint("max_concurrent_remote", 1),))
        )
        verdict = monitor.review(
            profile_be(), MemoryMode.LOCAL, ClusterEngine()
        )
        assert verdict.admitted

    def test_concurrency_ceiling_vetoes(self):
        fleet = ClusterFleet(n_nodes=1)
        engine = fleet.engines[0]
        engine.deploy(profile_be(), MemoryMode.REMOTE)
        monitor = SafetyMonitor(
            SafetyEnvelope((SafetyConstraint("max_concurrent_remote", 1),))
        )
        verdict = monitor.review(
            profile_be(), MemoryMode.REMOTE, engine, fleet=fleet
        )
        assert verdict.action == "veto"
        assert verdict.constraint == "max_concurrent_remote"
        assert monitor.vetoes == {"max_concurrent_remote": 1}

    def test_breaker_gate_downgrades_while_open(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=100.0)
        breaker.record_failure(0.0)
        monitor = SafetyMonitor(
            SafetyEnvelope(
                (SafetyConstraint("breaker_closed", action="downgrade"),)
            ),
            breaker=breaker,
        )
        verdict = monitor.review(
            profile_be(), MemoryMode.REMOTE, ClusterEngine()
        )
        assert verdict.action == "downgrade"
        assert monitor.downgrades == {"breaker_closed": 1}
        breaker.record_success(200.0)
        breaker.allow(200.0)

    def test_qos_burn_ceiling(self):
        slo = SloEngine(targets={"redis": 1.0}, windows=(60.0,))
        for i in range(10):
            slo.record("redis", p99_ms=5.0, clock=float(i))  # all violations
        monitor = SafetyMonitor(
            SafetyEnvelope((SafetyConstraint("max_qos_burn_rate", 2.0),)),
            slo=slo,
        )
        verdict = monitor.review(
            profile_lc(), MemoryMode.REMOTE, ClusterEngine(), clock=10.0
        )
        assert verdict.action == "veto"
        assert verdict.constraint == "max_qos_burn_rate"

    def test_pool_capacity_ceiling(self):
        fleet = ClusterFleet(
            n_nodes=2, pool=RemotePoolConfig(capacity_gb=20.0)
        )
        monitor = SafetyMonitor(
            SafetyEnvelope((SafetyConstraint("max_pool_capacity", 0.5),))
        )
        verdict = monitor.review(
            profile_lc(), MemoryMode.REMOTE, fleet.engines[0], fleet=fleet
        )
        # redis is 16 GB against a 10 GB effective ceiling.
        assert verdict.action == "veto"
        assert verdict.constraint == "max_pool_capacity"

    def test_pool_capacity_ceiling_reads_the_surviving_pool(self):
        fleet = ClusterFleet(
            n_nodes=2,
            pool=RemotePoolConfig(regime="pooled", capacity_gb=100.0),
        )
        scan = be_profiles()["scan"]
        for _ in range(5):
            fleet.engines[0].deploy(scan, MemoryMode.REMOTE)
        fleet.pool.set_device_factors(0.5, 1.0)
        monitor = SafetyMonitor(
            SafetyEnvelope((SafetyConstraint("max_pool_capacity", 0.95),))
        )
        verdict = monitor.review(
            scan, MemoryMode.REMOTE, fleet.engines[1], fleet=fleet
        )
        # 40 GB drawn + 8 GB would fill 96 % of the 50 GB that survive.
        assert verdict.action == "veto"
        assert verdict.constraint == "max_pool_capacity"
        assert verdict.detail["value"] == 0.96

    def test_first_violation_wins_declared_order(self):
        fleet = ClusterFleet(n_nodes=1)
        engine = fleet.engines[0]
        engine.deploy(profile_be(), MemoryMode.REMOTE)
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=100.0)
        breaker.record_failure(0.0)
        monitor = SafetyMonitor(
            SafetyEnvelope(
                (
                    SafetyConstraint("breaker_closed"),
                    SafetyConstraint("max_concurrent_remote", 1),
                )
            ),
            breaker=breaker,
        )
        verdict = monitor.review(
            profile_be(), MemoryMode.REMOTE, engine, fleet=fleet
        )
        assert verdict.constraint == "breaker_closed"

    def test_state_dict_round_trip(self):
        monitor = SafetyMonitor(SafetyEnvelope())
        monitor.vetoes = {"max_pool_capacity": 3}
        monitor.downgrades = {"breaker_closed": 1}
        monitor._active = {"max_pool_capacity"}
        fresh = SafetyMonitor(SafetyEnvelope())
        fresh.load_state_dict(
            json.loads(json.dumps(monitor.state_dict()))
        )
        assert fresh.vetoes == monitor.vetoes
        assert fresh.downgrades == monitor.downgrades
        assert fresh._active == monitor._active


class TestObservability:
    def test_veto_metered_and_streamed_edge_triggered(self, tmp_path):
        live = obs.enable_live(tmp_path / "live", flush_every=1)
        fleet = ClusterFleet(n_nodes=1)
        engine = fleet.engines[0]
        engine.deploy(profile_be(), MemoryMode.REMOTE)
        monitor = SafetyMonitor(
            SafetyEnvelope((SafetyConstraint("max_concurrent_remote", 1),))
        )
        monitor.review(profile_be(), MemoryMode.REMOTE, engine, fleet=fleet)
        monitor.review(profile_be(), MemoryMode.REMOTE, engine, fleet=fleet)
        snapshot = obs.metrics().snapshot()
        family = next(
            f for f in snapshot if f["name"] == "safety_vetoes_total"
        )
        (series,) = family["series"]
        assert series["labels"] == {
            "constraint": "max_concurrent_remote", "node": "n0"
        }
        assert series["value"] == 2
        live.flush()
        records = [
            json.loads(line)
            for line in live.exporter.path.read_text().splitlines()
        ]
        vetoes = [r for r in records if r.get("kind") == "safety_veto"]
        assert len(vetoes) == 2
        assert vetoes[0]["constraint"] == "max_concurrent_remote"
        assert vetoes[0]["action"] == "veto"

    def test_clear_event_after_constraint_recovers(self, tmp_path):
        live = obs.enable_live(tmp_path / "live", flush_every=1)
        fleet = ClusterFleet(n_nodes=1)
        engine = fleet.engines[0]
        blocker = engine.deploy(profile_be(), MemoryMode.REMOTE)
        monitor = SafetyMonitor(
            SafetyEnvelope((SafetyConstraint("max_concurrent_remote", 1),))
        )
        monitor.review(profile_be(), MemoryMode.REMOTE, engine, fleet=fleet)
        blocker.progress_s = blocker.profile.nominal_runtime_s
        engine.tick()
        monitor.review(profile_be(), MemoryMode.REMOTE, engine, fleet=fleet)
        live.flush()
        records = [
            json.loads(line)
            for line in live.exporter.path.read_text().splitlines()
        ]
        kinds = [r.get("kind") for r in records if r.get("t") == "event"]
        assert "safety_clear" in kinds
