"""LiveSession end to end: engine wiring, joins, crash safety, purity."""

import json

import numpy as np
import pytest

from repro import obs
from repro.cluster.engine import ClusterEngine
from repro.cluster.scenario import ScenarioConfig, run_scenario
from repro.obs.live.watch import read_stream
from repro.orchestrator.policies import RandomPolicy
from repro.workloads.base import MemoryMode
from repro.workloads.registry import lc_profiles


def live_session(tmp_path, **kwargs):
    kwargs.setdefault("flush_every", 1)
    return obs.enable_live(tmp_path / "live", **kwargs)


class TestWiring:
    def test_no_live_session_by_default(self):
        assert obs.live_session() is None
        obs.enable()
        assert obs.live_session() is None  # plain enable stays passive

    def test_engine_without_live_session_gets_no_hooks(self):
        engine = ClusterEngine()
        assert engine._tick_hooks == []
        assert not hasattr(engine, "_tick_observers")

    def test_engine_auto_attaches_to_live_session(self, tmp_path):
        live = live_session(tmp_path)
        engine = ClusterEngine()
        assert live._on_tick in engine._tick_hooks

    def test_enable_live_is_idempotent(self, tmp_path):
        live = live_session(tmp_path)
        assert obs.enable_live(tmp_path / "live") is live

    def test_disable_closes_the_session(self, tmp_path):
        live = live_session(tmp_path)
        obs.disable()
        assert obs.live_session() is None
        assert live.exporter.closed


class TestStreamRecords:
    def test_meta_is_first_then_ticks(self, tmp_path):
        live = live_session(tmp_path)
        engine = ClusterEngine()
        engine.run_for(5.0)
        records, skipped = read_stream(live.exporter.path)
        assert skipped == 0
        assert records[0]["t"] == "meta"
        assert records[0]["version"] == 2
        ticks = [r for r in records if r["t"] == "tick"]
        assert len(ticks) == 5
        assert ticks[-1]["clock"] == 5.0
        assert ticks[-1]["sim"] == 5.0
        assert "link_util" in ticks[-1]

    def test_decisions_appear_in_next_tick_record(self, tmp_path):
        live = live_session(tmp_path)
        engine = ClusterEngine()
        policy = RandomPolicy(seed=0)
        profile = lc_profiles()["redis"]
        policy(profile, engine)
        engine.tick()
        records, _ = read_stream(live.exporter.path)
        tick = [r for r in records if r["t"] == "tick"][-1]
        assert tick["decisions"]["random"] == {
            mode: 1 for mode in tick["decisions"]["random"]
        }

    def test_session_clock_spans_engines(self, tmp_path):
        live = live_session(tmp_path)
        ClusterEngine().run_for(3.0)
        ClusterEngine().run_for(2.0)
        assert live.clock == 5.0
        assert live.ticks == 5

    def test_end_record_written_on_disable(self, tmp_path):
        live = live_session(tmp_path)
        ClusterEngine().run_for(2.0)
        path = live.exporter.path
        obs.disable()
        records, _ = read_stream(path)
        end = records[-1]
        assert end["t"] == "end"
        assert end["ticks"] == 2

    def test_dump_reports_stream_artifacts(self, tmp_path):
        live_session(tmp_path)
        ClusterEngine().run_for(2.0)
        paths = obs.dump(tmp_path / "live")
        assert "stream.jsonl" in paths
        assert "stream.prom" in paths
        assert paths["stream.prom"].read_text().startswith("#")


class TestProfileRecords:
    """The live stream carries the phase table, not sampled frames."""

    @staticmethod
    def profiles(tmp_path):
        live = live_session(tmp_path)
        run_scenario(
            ScenarioConfig(duration_s=450.0, seed=5),
            scheduler=RandomPolicy(seed=5),
        )
        path = live.exporter.path
        obs.disable()
        records, _ = read_stream(path)
        return [r for r in records if r["t"] == "profile"], records[-1]

    def test_streamed_every_200_ticks_and_at_close(self, tmp_path):
        profiles, end = self.profiles(tmp_path)
        assert [p["clock"] for p in profiles[:-1]] == [
            200.0 * k for k in range(1, end["ticks"] // 200 + 1)
        ]
        final = profiles[-1]["phases"]
        assert {"engine.arbitration", "engine.advance", "policy.decide"} <= set(
            final
        )
        assert final["engine.tick"]["calls"] == end["ticks"]

    def test_phase_names_and_calls_identical_across_seeded_runs(self, tmp_path):
        def calls(profiles):
            return [
                {name: entry["calls"] for name, entry in p["phases"].items()}
                for p in profiles
            ]

        first, _ = self.profiles(tmp_path / "a")
        second, _ = self.profiles(tmp_path / "b")
        assert len(first) >= 3
        assert calls(first) == calls(second)


class TestForecastJoin:
    def test_forecast_joins_after_horizon_elapses(self, tmp_path):
        live = live_session(tmp_path)
        engine = ClusterEngine()
        engine.tick()  # give the watcher one sample
        s_hat = np.zeros(engine.trace.window(engine.now, 1.0).shape[1])
        live.note_state_forecast(s_hat, horizon_s=3.0)
        engine.run_for(2.0)
        assert live.drift.snapshot().get("system_state") is None
        engine.run_for(2.0)  # watcher coverage passes emit + horizon
        state = live.drift.snapshot()["system_state"]
        assert state["n"] == 1
        assert np.isfinite(state["ewma"])

    def test_forecast_without_engine_is_dropped(self, tmp_path):
        live = live_session(tmp_path)
        live.note_state_forecast(np.zeros(4), horizon_s=2.0)  # no engine yet
        ClusterEngine().run_for(5.0)
        assert "system_state" not in live.drift.snapshot()


class TestSloIntegration:
    def test_lc_records_scored_against_targets(self, tmp_path):
        live = live_session(
            tmp_path, qos_p99_ms={"redis": 0.1}, slo_windows=(30.0, 120.0)
        )
        engine = ClusterEngine()
        engine.deploy(lc_profiles()["redis"], MemoryMode.REMOTE, duration_s=10.0)
        engine.run_until_idle()
        snap = live.slo.snapshot(live.clock)
        assert snap["redis"]["total"] == 1
        assert snap["redis"]["violations"] == 1


class TestCrashSafety:
    def test_stream_parses_when_killed_mid_run(self, tmp_path):
        """No close(), large buffer: on-disk lines are still all valid."""
        live = live_session(tmp_path, flush_every=4)
        ClusterEngine().run_for(10.0)
        # Simulated kill: read the file as-is, then break the tail the
        # way a mid-write kill would.
        path = live.exporter.path
        for line in path.read_text().splitlines():
            json.loads(line)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"t": "tick", "torn')  # no newline, no close
        records, skipped = read_stream(path)
        assert skipped == 1
        assert all("torn" not in str(r) for r in records)


class TestDisabledPurity:
    @staticmethod
    def _run(seed: int):
        return run_scenario(
            ScenarioConfig(duration_s=200.0, seed=seed),
            scheduler=RandomPolicy(seed=seed),
        )

    def test_live_session_never_perturbs_the_simulation(self, tmp_path):
        """Bit-identical traces with live streaming on vs fully off."""
        baseline = self._run(seed=11)
        live_session(tmp_path, qos_p99_ms={"redis": 1.0})
        streamed = self._run(seed=11)
        obs.disable()
        assert baseline.times == streamed.times
        assert np.array_equal(baseline.metrics, streamed.metrics)
        # repr-compare: BE records carry p99 = NaN, and NaN != NaN.
        assert repr(baseline.records) == repr(streamed.records)

    def test_disabled_run_after_live_is_also_identical(self, tmp_path):
        live_session(tmp_path)
        self._run(seed=12)
        obs.disable()
        again = self._run(seed=12)
        fresh = self._run(seed=12)
        assert repr(again.records) == repr(fresh.records)


class TestDriftAlarmEvent:
    def test_alarm_emits_drift_event_and_flushes(self, tmp_path):
        fired = []
        live = live_session(
            tmp_path,
            flush_every=1024,  # would normally hold records in memory
            drift_threshold=2.0,
            drift_min_samples=4,
            on_drift=fired.append,
        )
        for i in range(20):
            live.drift.observe("be", 0.05, clock=float(i))
        for i in range(20, 40):
            if live.drift.observe("be", 3.0, clock=float(i)):
                break
        assert len(fired) == 1
        records, _ = read_stream(live.exporter.path)
        events = [r for r in records if r.get("t") == "event"]
        assert events and events[-1]["kind"] == "drift"
        assert events[-1]["stream"] == "be"
