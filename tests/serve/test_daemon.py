"""Orchestrator daemon: admission ops, watchdog, checkpoint round-trip."""

import json
from collections import Counter

import pytest

from repro import obs
from repro.faults.errors import CheckpointError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.serve.daemon import (
    DaemonConfig,
    OrchestratorDaemon,
    load_daemon_checkpoint,
)
from repro.serve.safety import SafetyConstraint, SafetyEnvelope

#: n1 crashes at 3 s: a checkpoint taken at 6 s carries fleet health.
CRASH = FaultPlan(
    faults=(
        FaultSpec(kind="node_crash", start_s=3.0, duration_s=6.0,
                  params={"node": "n1"}),
    ),
    seed=5,
)


def _unknown_failover_entry(data):
    data["fleet"]["health"]["failover_queue"].append({
        "profile": "no-such-app", "mode": "local", "duration_s": None,
        "decided_s": 0.0, "from_node": "n1", "cause": "node_crash",
    })


def _finished_deployment(data):
    deployment = next(
        d for engine in data["fleet"]["engines"] for d in engine["deployments"]
    )
    deployment["finish_time"] = data["fleet"]["now"]


#: Stale or hand-edited daemon checkpoints: (mutation, expected message).
STALE_DAEMON_CHECKPOINTS = {
    "version-1": (
        lambda d: d.update(version=1),
        r"unsupported daemon checkpoint version 1 \(expected 3\)",
    ),
    "version-2": (
        lambda d: d.update(version=2),
        r"unsupported daemon checkpoint version 2 \(expected 3\)",
    ),
    "config": (lambda d: d["config"].pop("seed"), r"\['seed'\]"),
    "fleet": (lambda d: d["fleet"].pop("dt"), r"\['dt'\]"),
    "engine": (
        lambda d: d["fleet"]["engines"][0].pop("counter_rng"),
        r"\['counter_rng'\]",
    ),
    "health": (
        lambda d: d["fleet"]["health"].pop("missed"), r"\['missed'\]"
    ),
    "breaker": (lambda d: d["breaker"].pop("state"), r"\['state'\]"),
    "safety": (lambda d: d["safety"].pop("vetoes"), r"\['vetoes'\]"),
    "ledger": (
        lambda d: d["ledger"]["d0"].pop("status"), r"\['status'\]"
    ),
    "failover-workload": (
        _unknown_failover_entry, "unknown workload 'no-such-app'"
    ),
    "finished-deployment": (
        _finished_deployment, r"lists finished deployments \[\d+\]"
    ),
}


def make_daemon(clock, *, envelope=None, plan=None, **config):
    config.setdefault("tick_interval_s", 0.5)
    return OrchestratorDaemon(
        DaemonConfig(**config), envelope=envelope, plan=plan, clock=clock
    )


def pump_until(daemon, clock, predicate, limit=200):
    """Advance the fake wall clock and pump until ``predicate(daemon)``."""
    for _ in range(limit):
        if predicate(daemon):
            return True
        clock.advance(daemon.config.tick_interval_s)
        daemon.pump()
    return predicate(daemon)


class TestRequestHandling:
    @pytest.mark.parametrize(
        "line",
        ["{not json", "[1, 2]", '"just a string"', '{"op": "explode"}',
         '{"no": "op"}'],
    )
    def test_bad_input_never_raises(self, clock, line):
        daemon = make_daemon(clock)
        response = daemon.handle_line(line)
        assert response["ok"] is False
        assert daemon.counters["malformed"] == 1

    def test_handler_exceptions_become_error_responses(self, clock):
        daemon = make_daemon(clock)
        response = daemon.handle_line(
            json.dumps({"op": "deploy", "app": "redis", "duration": "soon"})
        )
        assert response["ok"] is False

    def test_deploy_query_roundtrip(self, clock):
        daemon = make_daemon(clock)
        response = daemon.handle_line(
            json.dumps({"op": "deploy", "app": "redis"})
        )
        assert response["ok"] is True
        assert response["status"] == "running"
        assert response["node"].startswith("n")
        queried = daemon.handle_line(
            json.dumps({"op": "query", "id": response["id"]})
        )
        assert queried["ok"] is True
        assert queried["status"] == "running"
        assert daemon.counters["submitted"] == 1

    def test_unknown_workload_rejected(self, clock):
        daemon = make_daemon(clock)
        response = daemon.handle_line(
            json.dumps({"op": "deploy", "app": "kafka"})
        )
        assert response["ok"] is False
        assert "unknown workload" in response["error"]

    def test_complete_uses_the_natural_finish_path(self, clock):
        daemon = make_daemon(clock)
        deployed = daemon.handle_line(
            json.dumps({"op": "deploy", "app": "redis", "duration": 500})
        )
        completing = daemon.handle_line(
            json.dumps({"op": "complete", "id": deployed["id"]})
        )
        assert completing == {
            "ok": True, "id": deployed["id"], "status": "completing",
        }
        daemon.handle_line(json.dumps({"op": "tick", "n": 2}))
        queried = daemon.handle_line(
            json.dumps({"op": "query", "id": deployed["id"]})
        )
        assert queried["status"] == "finished"
        assert daemon.counters["finished"] == 1
        assert daemon.counters["completed_early"] == 1
        assert daemon.counters["double_finished"] == 0

    def test_complete_rejects_unknown_and_nonrunning_ids(self, clock):
        daemon = make_daemon(clock)
        assert daemon.handle_line(
            json.dumps({"op": "complete", "id": "d99"})
        )["ok"] is False
        deployed = daemon.handle_line(
            json.dumps({"op": "deploy", "app": "redis"})
        )
        daemon.handle_line(json.dumps({"op": "complete", "id": deployed["id"]}))
        daemon.handle_line(json.dumps({"op": "tick", "n": 2}))
        again = daemon.handle_line(
            json.dumps({"op": "complete", "id": deployed["id"]})
        )
        assert again["ok"] is False
        assert "finished" in again["error"]

    def test_health_reports_counters_and_safety(self, clock):
        daemon = make_daemon(clock)
        daemon.handle_line(json.dumps({"op": "deploy", "app": "memcached"}))
        health = daemon.handle_line(json.dumps({"op": "health"}))
        assert health["ok"] is True
        assert health["status"] == "serving"
        assert health["running"] == 1
        assert health["breaker"] == "closed"
        assert health["counters"]["submitted"] == 1
        assert health["safety"] == {"vetoes": {}, "downgrades": {}}

    def test_drain_refuses_new_work(self, clock):
        daemon = make_daemon(clock)
        drained = daemon.handle_line(
            json.dumps({"op": "drain", "reason": "test"})
        )
        assert drained == {"ok": True, "status": "draining"}
        assert daemon.drain_reason == "test"
        refused = daemon.handle_line(
            json.dumps({"op": "deploy", "app": "redis"})
        )
        assert refused["ok"] is False
        assert "draining" in refused["error"]
        assert daemon.handle_line(
            json.dumps({"op": "health"})
        )["status"] == "draining"

    def test_pause_stops_the_pump(self, clock):
        daemon = make_daemon(clock)
        daemon.handle_line(json.dumps({"op": "pause"}))
        clock.advance(10.0)
        assert daemon.pump() is False
        assert daemon.fleet.now == 0.0
        daemon.handle_line(json.dumps({"op": "resume"}))
        clock.advance(1.0)
        assert daemon.pump() is True
        assert daemon.fleet.now == daemon.config.dt


class TestSafetyIntegration:
    def test_veto_is_audited_and_counted(self, clock, tmp_path):
        obs.enable_live(tmp_path / "live", flush_every=1)
        envelope = SafetyEnvelope(
            (SafetyConstraint("max_concurrent_remote", 1),)
        )
        daemon = make_daemon(clock, envelope=envelope)
        responses = [
            daemon.handle_line(json.dumps({"op": "deploy", "app": "redis"}))
            for _ in range(4)
        ]
        vetoed = [r for r in responses if r.get("status") == "vetoed"]
        assert vetoed, "expected at least one safety veto"
        assert vetoed[0]["ok"] is False
        assert vetoed[0]["constraint"] == "max_concurrent_remote"
        assert daemon.counters["vetoed"] == len(vetoed)
        # Vetoed requests still get a ledger id for postmortems.
        entry = daemon.ledger[vetoed[0]["id"]]
        assert entry["status"] == "vetoed"
        assert entry["constraint"] == "max_concurrent_remote"
        audited = [
            r for r in obs.audit().records
            if r.cause == "max_concurrent_remote"
        ]
        assert len(audited) == len(vetoed)
        assert all(
            r.reason == "safety-veto:max_concurrent_remote" for r in audited
        )
        assert all(r.chosen_mode == "none" for r in audited)
        # Each row names the node the verdict judged, as its ledger entry
        # does, and how far past the limit it was: a second remote
        # deployment against a limit of one.
        for row, response in zip(audited, vetoed):
            assert row.node == daemon.ledger[response["id"]]["node"]
            assert row.node == response["detail"]["node"]
            detail = response["detail"]
            assert row.margin == detail["limit"] - detail["value"] == -1.0

    def test_downgrade_lands_locally(self, clock):
        obs.enable()
        envelope = SafetyEnvelope(
            (
                SafetyConstraint(
                    "max_concurrent_remote", 1, action="downgrade"
                ),
            )
        )
        daemon = make_daemon(clock, envelope=envelope)
        responses = [
            daemon.handle_line(json.dumps({"op": "deploy", "app": "redis"}))
            for _ in range(3)
        ]
        downgraded = [r for r in responses if r.get("mode") == "local"]
        assert daemon.counters["downgraded"] == len(downgraded)
        assert daemon.counters["vetoed"] == 0
        assert all(r["ok"] for r in responses)
        rows = [
            r for r in obs.audit().records
            if r.reason == "safety-downgrade:max_concurrent_remote"
        ]
        assert len(rows) == len(downgraded) >= 1
        # One remote deployment in flight: the second is one past the limit.
        assert [r.margin for r in rows] == [-1.0] * len(rows)

    @pytest.mark.parametrize("action", ["veto", "downgrade"])
    def test_override_joins_only_what_was_placed(self, clock, action):
        """A veto or downgrade supersedes the scheduler's plan row: no row
        stays armed, and each finished deployment joins exactly one row —
        a downgraded one its own safety-downgrade row."""
        obs.enable()
        envelope = SafetyEnvelope(
            (SafetyConstraint("max_concurrent_remote", 1, action=action),)
        )
        daemon = make_daemon(clock, envelope=envelope)
        responses = [
            daemon.handle_line(json.dumps({"op": "deploy", "app": "redis"}))
            for _ in range(8)
        ]
        daemon.handle_line(json.dumps({"op": "tick", "n": 600}))
        engines = daemon.fleet.engines
        assert not any(e.running or e.queued_remote for e in engines)
        for engine in engines:
            assert not getattr(engine, "_obs_audit_pending", {}), engine.node_label
        finished = Counter(
            (e.node_label, record.app_id)
            for e in engines for record in e.trace.records
        )
        joined = [row for row in obs.audit().records if row.joined]
        placed = [(row.node, row.outcome["app_id"]) for row in joined]
        assert Counter(placed) == finished
        by_placement = dict(zip(placed, joined))
        downgraded = [
            daemon.ledger[r["id"]] for r in responses if r.get("mode") == "local"
        ]
        assert len(downgraded) == daemon.counters["downgraded"]
        assert bool(downgraded) == (action == "downgrade")
        for entry in downgraded:
            row = by_placement[(entry["node"], entry["app_id"])]
            assert row.reason == "safety-downgrade:max_concurrent_remote"
            assert row.outcome["fallback"] is False


class TestFaultPlan:
    def plan(self):
        return FaultPlan(
            faults=(
                FaultSpec("conn_drop", 0.0, 10.0,
                          {"probability": 1.0}),
                FaultSpec("wedged_tick", 2.0, 3.0),
            ),
            seed=7,
        )

    def test_conn_drop_window(self, clock):
        daemon = make_daemon(clock, plan=self.plan())
        assert daemon.maybe_drop_connection() is True
        assert daemon.counters["dropped_conns"] == 1
        # Outside the window the dice are never rolled.
        daemon.fleet._now = 50.0
        assert daemon.maybe_drop_connection() is False

    def test_watchdog_restarts_wedged_loop_behind_breaker(self, clock):
        daemon = make_daemon(
            clock,
            plan=self.plan(),
            watchdog_timeout_s=2.0,
            breaker_cooldown_s=10.0,
        )
        # Tick up to the wedge window: the loop stops advancing sim time.
        pump_until(daemon, clock, lambda d: d.fleet.now >= 2.0)
        wedged_at = daemon.fleet.now
        assert daemon._wedge_active() is not None
        # The heartbeat ages on the wall clock until the watchdog fires.
        pump_until(
            daemon, clock, lambda d: d.counters["watchdog_restarts"] == 1
        )
        assert daemon.fleet.now == wedged_at  # wedge never advanced sim time
        assert daemon.breaker.state.value == "open"
        # Cooldown runs on the sim clock; the first probe tick re-closes.
        pump_until(
            daemon, clock, lambda d: d.breaker.state.value == "closed"
        )
        assert daemon.fleet.now >= wedged_at + daemon.config.breaker_cooldown_s
        assert daemon.counters["watchdog_restarts"] == 1
        # The cleared window must not re-wedge the loop.
        clock.advance(daemon.config.tick_interval_s)
        assert daemon.pump() is True

    @pytest.mark.parametrize("action", ["downgrade", "veto"])
    def test_open_breaker_gates_remote_deploys(self, clock, action):
        """While the watchdog's restart holds the breaker open, a deploy
        bound for remote memory is downgraded (the sample envelope) or
        vetoed; its audit row has no margin, as breaker_closed has no
        limit."""
        obs.enable()
        envelope = (
            SafetyEnvelope.sample() if action == "downgrade"
            else SafetyEnvelope((SafetyConstraint("breaker_closed"),))
        )
        daemon = make_daemon(
            clock,
            envelope=envelope,
            plan=self.plan(),
            watchdog_timeout_s=2.0,
            breaker_cooldown_s=10.0,
        )
        pump_until(
            daemon, clock, lambda d: d.counters["watchdog_restarts"] == 1
        )
        assert daemon.breaker.state.value == "open"
        response = daemon.handle_line(
            json.dumps({"op": "deploy", "app": "redis"})
        )
        assert "error" not in response, response
        statuses = Counter(e["status"] for e in daemon.ledger.values())
        (row,) = [r for r in obs.audit().records if r.cause == "breaker_closed"]
        assert row.margin is None
        if action == "downgrade":
            assert response["ok"] is True
            assert (response["status"], response["mode"]) == ("running", "local")
            assert daemon.counters["downgraded"] == 1
            assert daemon.monitor.downgrades == {"breaker_closed": 1}
            assert statuses == {"running": daemon.counters["submitted"]} == {
                "running": 1
            }
            assert (row.reason, row.chosen_mode) == (
                "safety-downgrade:breaker_closed", "local",
            )
        else:
            assert response["ok"] is False
            assert response["status"] == "vetoed"
            assert response["constraint"] == "breaker_closed"
            assert response["detail"]["limit"] is None
            assert daemon.counters["vetoed"] == 1
            assert daemon.counters["submitted"] == 0
            assert daemon.monitor.vetoes == {"breaker_closed": 1}
            assert statuses == {"vetoed": 1}
            assert (row.reason, row.chosen_mode) == (
                "safety-veto:breaker_closed", "none",
            )


class TestCheckpoint:
    def test_save_restore_save_is_bit_identical(self, clock, tmp_path):
        daemon = make_daemon(clock, checkpoint_path=str(tmp_path / "d.ckpt"))
        for app in ("redis", "memcached", "redis"):
            daemon.handle_line(json.dumps({"op": "deploy", "app": app}))
        daemon.handle_line(json.dumps({"op": "tick", "n": 3}))
        daemon.handle_line(json.dumps({"op": "nope"}))  # malformed counter
        first = daemon.save(tmp_path / "a.ckpt")
        restored = OrchestratorDaemon.restore(first, clock=clock)
        second = restored.save(tmp_path / "b.ckpt")
        assert first.read_bytes() == second.read_bytes()
        assert restored.counters == daemon.counters
        assert restored.ledger == daemon.ledger
        assert restored.fleet.now == daemon.fleet.now
        assert restored._by_key == daemon._by_key

    def test_save_restore_save_keeps_parked_work(self, clock, tmp_path):
        daemon = make_daemon(clock)
        daemon.handle_line(json.dumps({"op": "deploy", "app": "redis"}))
        engine = daemon.fleet.engines[1]
        engine.remote_blocked = True  # the link is out: retries keep failing
        engine.queue_remote(daemon.profiles["memcached"], decided_s=0.0)
        daemon.handle_line(json.dumps({"op": "tick", "n": 2}))
        first = daemon.save(tmp_path / "a.ckpt")
        assert load_daemon_checkpoint(first)["fleet"]["engines"][1][
            "retry_queue"
        ]
        restored = OrchestratorDaemon.restore(first, clock=clock)
        second = restored.save(tmp_path / "b.ckpt")
        assert first.read_bytes() == second.read_bytes()

    def test_restore_under_a_live_session_streams_each_engine_once(
        self, clock, tmp_path
    ):
        daemon = make_daemon(clock)
        daemon.handle_line(json.dumps({"op": "deploy", "app": "redis"}))
        path = daemon.save(tmp_path / "d.ckpt")
        live = obs.enable_live(tmp_path / "live", flush_every=1)
        restored = OrchestratorDaemon.restore(path, clock=clock)
        restored.handle_line(json.dumps({"op": "tick", "n": 3}))
        records = [
            json.loads(line)
            for line in live.exporter.path.read_text().splitlines()
        ]
        streamed = {r["engine"] for r in records if r.get("t") == "tick"}
        assert streamed == {0, 1}

    @pytest.fixture()
    def crash_checkpoint(self, clock, tmp_path):
        daemon = make_daemon(clock, plan=CRASH)
        daemon.handle_line(json.dumps({"op": "deploy", "app": "redis"}))
        daemon.handle_line(json.dumps({"op": "tick", "n": 6}))
        return daemon.save(tmp_path / "crash.ckpt")

    @pytest.mark.parametrize("stale", sorted(STALE_DAEMON_CHECKPOINTS))
    def test_stale_part_is_a_checkpoint_error(self, crash_checkpoint, stale):
        mutate, message = STALE_DAEMON_CHECKPOINTS[stale]
        data = json.loads(crash_checkpoint.read_text())
        mutate(data)
        crash_checkpoint.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match=message):
            OrchestratorDaemon.restore(crash_checkpoint)

    @pytest.mark.parametrize("stale", sorted(STALE_DAEMON_CHECKPOINTS))
    def test_cli_resume_of_a_stale_checkpoint_exits_2(
        self, crash_checkpoint, stale, capsys
    ):
        from repro.__main__ import main

        mutate, _ = STALE_DAEMON_CHECKPOINTS[stale]
        data = json.loads(crash_checkpoint.read_text())
        mutate(data)
        crash_checkpoint.write_text(json.dumps(data))
        # --max-wall-s bounds the run should a regression let it serve.
        argv = ["serve", "--resume", str(crash_checkpoint), "--port", "0",
                "--max-wall-s", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("serve: ")

    def test_restored_deployments_keep_finishing(self, clock, tmp_path):
        daemon = make_daemon(clock)
        deployed = daemon.handle_line(
            json.dumps({"op": "deploy", "app": "redis"})
        )
        path = daemon.save(tmp_path / "d.ckpt")
        restored = OrchestratorDaemon.restore(path, clock=clock)
        completing = restored.handle_line(
            json.dumps({"op": "complete", "id": deployed["id"]})
        )
        assert completing["ok"] is True
        restored.handle_line(json.dumps({"op": "tick", "n": 2}))
        assert restored.ledger[deployed["id"]]["status"] == "finished"
        assert restored.counters["finished"] == 1
        assert restored.counters["double_finished"] == 0

    def test_finalize_writes_checkpoint_and_annotates_stream(
        self, clock, tmp_path
    ):
        live = obs.enable_live(tmp_path / "live", flush_every=1)
        stream = live.exporter.path
        daemon = make_daemon(
            clock, checkpoint_path=str(tmp_path / "final.ckpt")
        )
        daemon.handle_line(json.dumps({"op": "deploy", "app": "redis"}))
        daemon.begin_drain("unit test")
        path = daemon.finalize()
        assert path is not None and path.exists()
        records = [
            json.loads(line) for line in stream.read_text().splitlines()
        ]
        end = [r for r in records if r.get("t") == "end"]
        assert end and end[-1]["reason"] == "daemon draining"
        drains = [r for r in records if r.get("kind") == "drain"]
        assert drains and drains[0]["reason"] == "unit test"

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no daemon checkpoint"):
            load_daemon_checkpoint(tmp_path / "nope.ckpt")

    def test_corrupt_json_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "d.ckpt"
        path.write_text("{truncated")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_daemon_checkpoint(path)

    def test_wrong_version_is_a_checkpoint_error(self, clock, tmp_path):
        daemon = make_daemon(clock)
        path = daemon.save(tmp_path / "d.ckpt")
        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="version"):
            load_daemon_checkpoint(path)

    @pytest.mark.parametrize(
        "missing", ["config", "now", "engines", "ledger", "counters"]
    )
    def test_stale_payload_names_the_missing_field(
        self, clock, tmp_path, missing
    ):
        daemon = make_daemon(clock)
        path = daemon.save(tmp_path / "d.ckpt")
        data = json.loads(path.read_text())
        # The fleet clock and engines live in the shared fleet part.
        part = data["fleet"] if missing in ("now", "engines") else data
        del part[missing]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match=missing):
            OrchestratorDaemon.restore(path)

    def test_unknown_config_field_rejected(self, clock, tmp_path):
        daemon = make_daemon(clock)
        path = daemon.save(tmp_path / "d.ckpt")
        data = json.loads(path.read_text())
        data["config"]["turbo"] = True
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="turbo"):
            OrchestratorDaemon.restore(path)

    def test_engine_count_mismatch_rejected(self, clock, tmp_path):
        daemon = make_daemon(clock)
        path = daemon.save(tmp_path / "d.ckpt")
        data = json.loads(path.read_text())
        data["fleet"]["engines"] = data["fleet"]["engines"][:1]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="engines"):
            OrchestratorDaemon.restore(path)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            DaemonConfig(n_nodes=0)
        with pytest.raises(ValueError):
            DaemonConfig(tick_interval_s=0.0)
        with pytest.raises(ValueError):
            DaemonConfig(drain_grace_s=-1.0)
