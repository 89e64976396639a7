"""Uptime does not grow what an engine holds, nor a step's work.

A stationary schedule runs for ten simulated hours: one deploy every
eight ticks, each completed eight ticks later.  Finished deployments
leave their engine, so after the first hour no engine ever holds more
deployments than the most it held during that hour, no step between two
ticks does more work than the most one did during that hour, and the
daemon checkpoint carries no finished deployment.
"""

import functools
import json

from repro.cluster import ClusterEngine
from repro.cluster.deployment import Deployment
from repro.cluster.scenario import default_pool
from repro.hardware.testbed import ResourceDemand, Testbed
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
    """After each tick: record each engine's held deployments and the
    work of the step since the previous tick during the first hour, and
    check every later tick against that hour's peaks.

    The work is counted by class-level wrappers that ``monkeypatch``
    undoes after the test: ``Deployment.running`` reads,
    ``Testbed.resolve`` calls and ``ResourceDemand`` constructions.
    """

    def __init__(self, engines, monkeypatch) -> None:
        self.engines = engines
        self.peaks: dict[str, int] = {}
        self.ticks = 0
        self.step = {"running reads": 0, "resolves": 0, "demands": 0}
        running = self._counted("running reads", Deployment.running.fget)
        monkeypatch.setattr(Deployment, "running", property(running))
        monkeypatch.setattr(
            Testbed, "resolve", self._counted("resolves", Testbed.resolve)
        )
        monkeypatch.setattr(
            ResourceDemand, "__init__",
            self._counted("demands", ResourceDemand.__init__),
        )

    def _counted(self, what: str, original):
        """``original``, counting each call into this step's ``what``."""

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.step[what] += 1
            return original(*args, **kwargs)

        return counted

    def _check(self, what: str, value: int) -> None:
        if self.ticks <= HOUR_TICKS:
            self.peaks[what] = max(self.peaks.get(what, 0), value)
            return
        hour = (self.ticks - 1) // HOUR_TICKS + 1
        assert value <= self.peaks[what], (
            f"hour {hour}: {what} {value}, at most {self.peaks[what]} in hour 1"
        )

    def after_tick(self) -> None:
        self.ticks += 1
        for index, engine in enumerate(self.engines):
            self._check(f"engine {index} deployments held", len(engine.deployments))
        for what, done in self.step.items():
            self._check(f"{what} per step", done)
            self.step[what] = 0


class TestUptimeGrowth:
    def test_engine_holds_no_more_after_hour_1(self, monkeypatch):
        engine = ClusterEngine(dt=DT)
        watch = HeldWatch([engine], monkeypatch)
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

    def test_daemon_holds_no_more_after_hour_1(self, tmp_path, monkeypatch):
        daemon = OrchestratorDaemon(DaemonConfig(dt=DT), clock=lambda: 0.0)
        watch = HeldWatch(daemon.fleet.engines, monkeypatch)
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
