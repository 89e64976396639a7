"""Dashboard rendering and the ``repro obs watch`` CLI path."""

import io
import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.cluster.engine import ClusterEngine
from repro.obs.live.watch import read_stream, render_frame, watch
from repro.orchestrator.policies import RandomPolicy
from repro.workloads.registry import be_profiles


@pytest.fixture()
def stream_path(tmp_path):
    """A small recorded stream with ticks, decisions and an end record."""
    live = obs.enable_live(tmp_path / "live", flush_every=1)
    for i in range(10):
        live.drift.observe("be", 0.1 * i, clock=float(i))
    engine = ClusterEngine()
    policy = RandomPolicy(seed=4)
    for profile in list(be_profiles().values())[:3]:
        engine.deploy(profile, policy(profile, engine), duration_s=20.0)
        engine.run_for(5.0)
    engine.run_until_idle()
    path = live.exporter.path
    obs.disable()  # writes the end record
    return path


class TestReadStream:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_stream(tmp_path / "nope.jsonl")

    def test_torn_tail_is_skipped_not_fatal(self, stream_path):
        with stream_path.open("a", encoding="utf-8") as handle:
            handle.write('{"t": "tick", "n": 99')
        records, skipped = read_stream(stream_path)
        assert skipped == 1
        assert all(r.get("n") != 99 for r in records)


class TestRenderFrame:
    def test_sections_present(self, stream_path):
        records, _ = read_stream(stream_path)
        frame = render_frame(records)
        assert "Live observability" in frame
        assert "status" in frame and "finished" in frame
        assert "Decision mix" in frame
        assert "random" in frame
        assert "Link saturation regime" in frame
        assert "Predictor drift" in frame

    def test_hot_phases_panel_lists_leaf_phases(self, stream_path):
        records, _ = read_stream(stream_path)
        assert any(r["t"] == "profile" for r in records)
        panel = render_frame(records).split("Hot phases\n", 1)[1]
        rows = [line.split()[0] for line in panel.split("\n\n")[0].splitlines()]
        assert rows[0] == "phase"
        assert "engine.advance" in rows and "policy.decide" in rows
        assert "engine.tick" not in rows  # the envelope is not a leaf

    def test_sampled_profile_records_are_ignored(self, stream_path):
        records, _ = read_stream(stream_path)
        records = [r for r in records if r["t"] != "profile"]
        records.append({
            "t": "profile", "clock": 1.0, "samples": 4, "interval_s": 0.02,
            "top": [{"fn": "engine.tick", "n": 4, "share": 1.0}],
        })
        assert "Hot phases" not in render_frame(records)

    def test_no_ticks_yet(self):
        assert "no tick records" in render_frame([{"t": "meta"}])

    def test_running_status_without_end_record(self, stream_path):
        records, _ = read_stream(stream_path)
        alive = [r for r in records if r.get("t") != "end"]
        assert "running" in render_frame(alive)

    def test_torn_line_count_shown(self, stream_path):
        records, _ = read_stream(stream_path)
        assert "torn lines skipped" in render_frame(records, skipped=2)


class TestWatch:
    def test_once_renders_single_frame(self, stream_path):
        out = io.StringIO()
        assert watch(stream_path, once=True, out=out) == 0
        assert "Live observability" in out.getvalue()

    def test_loop_exits_on_end_record(self, stream_path):
        out = io.StringIO()
        assert watch(stream_path, interval=0.01, out=out) == 0

    def test_max_frames_bounds_the_loop(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"t": "tick", "n": 1, "clock": 1.0}) + "\n")
        out = io.StringIO()
        assert watch(path, interval=0.01, max_frames=2, out=out) == 0


class TestWatchReconnect:
    """A stream deleted mid-watch reconnects instead of crashing."""

    def test_stream_deleted_then_restored_reconnects(self, tmp_path):
        path = tmp_path / "s.jsonl"
        tick = json.dumps({"t": "tick", "n": 1, "clock": 1.0}) + "\n"
        end = json.dumps({"t": "end"}) + "\n"
        path.write_text(tick)
        sleeps = []

        def fake_sleep(delay):
            # Sleep #1 is the ordinary refresh pause (the file is already
            # gone, simulating rotation).  Sleep #2 runs inside the
            # reconnect loop; restoring the file there lets the retry
            # succeed, and the end record terminates the watch.
            sleeps.append(delay)
            if len(sleeps) >= 2 and not path.exists():
                path.write_text(tick + end)

        out = io.StringIO()
        first = {"done": False}

        def flaky_read(p):
            records, skipped = read_stream(p)
            if not first["done"]:
                first["done"] = True
                path.unlink()  # rotate away after the first frame
            return records, skipped

        import sys as _sys

        watch_mod = _sys.modules["repro.obs.live.watch"]
        original = watch_mod.read_stream
        watch_mod.read_stream = flaky_read
        try:
            assert watch(path, interval=0.01, out=out, sleep=fake_sleep) == 0
        finally:
            watch_mod.read_stream = original
        text = out.getvalue()
        assert "vanished" in text
        assert "reconnecting" in text
        assert len(sleeps) >= 2

    def test_gives_up_after_bounded_attempts(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sleeps = []
        out = io.StringIO()
        assert watch(path, interval=0.5, out=out, sleep=sleeps.append) == 2
        assert len(sleeps) == 5  # the reconnect budget
        # Exponential backoff, capped.
        assert sleeps == [0.5, 1.0, 2.0, 4.0, 8.0]
        assert "no stream" in out.getvalue()

    def test_once_mode_fails_fast_on_missing_stream(self, tmp_path):
        out = io.StringIO()
        called = []
        code = watch(
            tmp_path / "gone.jsonl", once=True, out=out, sleep=called.append
        )
        assert code == 2
        assert called == []  # no backoff in the CI path


class TestCli:
    def test_obs_watch_once(self, stream_path, capsys):
        assert main(["obs", "watch", str(stream_path), "--once"]) == 0
        assert "Live observability" in capsys.readouterr().out

    def test_obs_watch_usage_error(self, capsys):
        assert main(["obs", "watch"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_obs_summarize_still_works(self, stream_path, capsys):
        # `obs DIR` (no watch) keeps summarizing dumps.
        obs.enable()
        obs.dump(stream_path.parent)
        obs.disable()
        assert main(["obs", str(stream_path.parent)]) == 0
        assert "Metrics" in capsys.readouterr().out

    def test_obs_stream_requires_obs_out(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig02", "--obs-stream"])
        assert excinfo.value.code == 2
        assert "--obs-out" in capsys.readouterr().err

    def test_run_with_obs_stream_writes_stream(self, tmp_path, capsys):
        out = tmp_path / "dump"
        assert main(
            ["run", "fig08", "--obs-out", str(out), "--obs-stream"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "stream.jsonl" in stdout
        records, skipped = read_stream(out / "stream.jsonl")
        assert skipped == 0
        assert records[0]["t"] == "meta"
        assert any(r["t"] == "tick" for r in records)
        assert records[-1]["t"] == "end"
        assert (out / "stream.prom").exists()
        assert not obs.enabled()  # no leak into the process


class TestEndReason:
    def test_end_line_reports_stream_reason(self, tmp_path):
        live = obs.enable_live(tmp_path / "live", flush_every=1)
        path = live.exporter.path
        live.close(reason="daemon draining")
        obs.disable()
        out = io.StringIO()
        assert watch(path, interval=0.01, out=out) == 0
        assert "watch: stream ended: daemon draining" in out.getvalue()

    def test_end_line_defaults_when_reason_absent(self, stream_path):
        out = io.StringIO()
        assert watch(stream_path, interval=0.01, out=out) == 0
        assert "watch: stream ended: run completed" in out.getvalue()

    def test_no_exit_on_end_keeps_following(self, stream_path):
        out = io.StringIO()
        code = watch(
            stream_path, interval=0.01, out=out,
            exit_on_end=False, max_frames=3,
        )
        assert code == 0
        text = out.getvalue()
        # Announced once, then kept rendering until max_frames bounded it.
        assert text.count("following for a restart") == 1
        assert text.count("Live observability") == 3

    def test_cli_exit_on_end_flag(self, stream_path, capsys):
        assert main(
            ["obs", "watch", str(stream_path), "--exit-on-end"]
        ) == 0
        assert "stream ended" in capsys.readouterr().out


class TestSafetyPanel:
    def events(self):
        return [
            {"t": "tick", "n": 1, "clock": 1.0},
            {
                "t": "event", "kind": "safety_veto", "clock": 2.0,
                "constraint": "max_concurrent_remote", "action": "veto",
            },
            {
                "t": "event", "kind": "safety_veto", "clock": 3.0,
                "constraint": "max_concurrent_remote", "action": "veto",
            },
            {
                "t": "event", "kind": "safety_clear", "clock": 4.0,
                "constraint": "max_concurrent_remote",
            },
            {
                "t": "event", "kind": "safety_veto", "clock": 5.0,
                "constraint": "max_pool_capacity", "action": "veto",
            },
        ]

    def test_panel_rendered_with_per_constraint_state(self):
        frame = render_frame(self.events())
        assert "Safety envelope" in frame
        assert "max_concurrent_remote" in frame
        assert "max_pool_capacity" in frame
        assert "TRIPPED" in frame  # pool capacity never cleared
        assert "clear" in frame    # concurrency veto recovered

    def test_panel_absent_without_safety_events(self, stream_path):
        records, _ = read_stream(stream_path)
        assert "Safety envelope" not in render_frame(records)
