"""Uptime does not grow what an engine holds.

A stationary schedule runs for ten simulated hours: one deploy every
eight ticks, each completed eight ticks later.  Finished deployments
leave their engine, so after the first hour no engine ever holds more
deployments than the most it held during that hour, and the daemon
checkpoint carries no finished deployment.
"""

import json

from repro.cluster import ClusterEngine
from repro.cluster.scenario import default_pool
from repro.serve.daemon import DaemonConfig, OrchestratorDaemon
from repro.workloads import MemoryMode

DT = 2.0
HOUR_TICKS = int(3600 / DT)
HOURS = 10
#: Ticks between deploys, and from a deploy to its complete.
PERIOD = 8
APPS = ("scan", "sort", "lr", "gmm")
PROFILES = {p.name: p for p in default_pool()}


class HeldWatch:
    """After each tick: record each engine's held deployments during the
    first hour, and check every later tick against that hour's peak."""

    def __init__(self, engines) -> None:
        self.engines = engines
        self.peaks = [0] * len(engines)
        self.ticks = 0

    def after_tick(self) -> None:
        self.ticks += 1
        for index, engine in enumerate(self.engines):
            held = len(engine.deployments)
            if self.ticks <= HOUR_TICKS:
                self.peaks[index] = max(self.peaks[index], held)
            else:
                hour = (self.ticks - 1) // HOUR_TICKS + 1
                assert held <= self.peaks[index], (
                    f"hour {hour}: engine {index} holds {held} deployments, "
                    f"at most {self.peaks[index]} in hour 1"
                )


class TestUptimeGrowth:
    def test_engine_holds_no_more_after_hour_1(self):
        engine = ClusterEngine(dt=DT)
        watch = HeldWatch([engine])
        previous = None
        for index in range(HOURS * HOUR_TICKS // PERIOD):
            if previous is not None:
                previous.complete_early()
            mode = (MemoryMode.LOCAL, MemoryMode.REMOTE)[index % 2]
            previous = engine.deploy(PROFILES[APPS[index % len(APPS)]], mode)
            for _ in range(PERIOD):
                engine.tick()
                watch.after_tick()
        assert watch.ticks == HOURS * HOUR_TICKS
        assert len(engine.trace.records) == index

    def test_daemon_holds_no_more_after_hour_1(self, tmp_path):
        daemon = OrchestratorDaemon(DaemonConfig(dt=DT), clock=lambda: 0.0)
        watch = HeldWatch(daemon.fleet.engines)
        tick = json.dumps({"op": "tick"})
        previous = None
        for index in range(HOURS * HOUR_TICKS // PERIOD):
            if previous is not None:
                daemon.handle_line(json.dumps({"op": "complete", "id": previous}))
            response = daemon.handle_line(
                json.dumps({"op": "deploy", "app": APPS[index % len(APPS)]})
            )
            assert response["ok"], response
            previous = response["id"]
            for _ in range(PERIOD):
                assert daemon.handle_line(tick)["ok"]
                watch.after_tick()
        assert daemon.counters["finished"] == index
        saved = json.loads(daemon.save(tmp_path / "daemon.ckpt").read_text())
        kept = [
            d for engine in saved["fleet"]["engines"] for d in engine["deployments"]
        ]
        assert [d["finish_time"] for d in kept] == [None]
