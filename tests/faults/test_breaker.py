"""Circuit-breaker state machine on the simulated clock."""

import pytest

from repro.faults.breaker import CircuitBreaker, CircuitState


@pytest.fixture
def breaker():
    return CircuitBreaker(failure_threshold=3, cooldown_s=100.0)


class TestOpening:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state is CircuitState.CLOSED
        assert breaker.allow(0.0)

    def test_opens_after_consecutive_failures(self, breaker):
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state is CircuitState.CLOSED
        breaker.record_failure(3.0)
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow(3.0)

    def test_success_resets_the_streak(self, breaker):
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        breaker.record_success(3.0)
        breaker.record_failure(4.0)
        breaker.record_failure(5.0)
        assert breaker.state is CircuitState.CLOSED


class TestRecovery:
    def _open(self, breaker, at=0.0):
        for i in range(3):
            breaker.record_failure(at + i)

    def test_half_opens_after_cooldown(self, breaker):
        self._open(breaker)
        assert not breaker.allow(50.0)
        assert breaker.allow(102.0)  # cooldown elapsed -> probe allowed
        assert breaker.state is CircuitState.HALF_OPEN

    def test_probe_success_closes(self, breaker):
        self._open(breaker)
        breaker.allow(102.0)
        breaker.record_success(102.0)
        assert breaker.state is CircuitState.CLOSED
        assert breaker.allow(103.0)

    def test_probe_failure_reopens_and_restarts_cooldown(self, breaker):
        self._open(breaker)
        breaker.allow(102.0)
        breaker.record_failure(102.0)
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow(150.0)  # old cooldown origin discarded
        assert breaker.allow(202.0)
        assert breaker.state is CircuitState.HALF_OPEN

    def test_full_arc_recorded_in_transitions(self, breaker):
        self._open(breaker, at=1.0)
        breaker.allow(150.0)
        breaker.record_success(150.0)
        arcs = [(old, new) for _, old, new in breaker.transitions]
        assert arcs == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]


class TestValidationAndState:
    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)

    def test_bad_cooldown_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=0.0)

    def test_state_dict_round_trip(self, breaker):
        for i in range(3):
            breaker.record_failure(float(i))
        breaker.allow(200.0)
        restored = CircuitBreaker(failure_threshold=3, cooldown_s=100.0)
        restored.load_state_dict(breaker.state_dict())
        assert restored.state is breaker.state
        assert restored.consecutive_failures == breaker.consecutive_failures
        assert restored.opened_at == breaker.opened_at
        assert restored.transitions == breaker.transitions


class TestObservability:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        from repro import obs

        yield
        obs.disable()

    def test_state_gauge_carries_policy_and_node_labels(self, tmp_path):
        from repro import obs

        live = obs.enable_live(tmp_path / "live", flush_every=1)
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=10.0, name="adrias", node="n3"
        )
        breaker.record_failure(5.0)
        family = next(
            f for f in obs.metrics().snapshot()
            if f["name"] == "policy_circuit_state"
        )
        (series,) = family["series"]
        assert series["labels"] == {"policy": "adrias", "node": "n3"}
        assert series["value"] == 1  # open
        breaker.allow(20.0)  # half-open
        family = next(
            f for f in obs.metrics().snapshot()
            if f["name"] == "policy_circuit_state"
        )
        assert family["series"][0]["value"] == 2
        live.flush()
        import json

        events = [
            json.loads(line)
            for line in live.exporter.path.read_text().splitlines()
        ]
        circuits = [e for e in events if e.get("kind") == "circuit"]
        assert circuits and circuits[0]["node"] == "n3"
        assert circuits[0]["policy"] == "adrias"

    def test_node_label_defaults_to_n0(self):
        from repro import obs

        obs.enable()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0,
                                 name="solo")
        breaker.record_failure(0.0)
        family = next(
            f for f in obs.metrics().snapshot()
            if f["name"] == "policy_circuit_state"
        )
        assert family["series"][0]["labels"] == {
            "policy": "solo", "node": "n0"
        }
