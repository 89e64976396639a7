"""DaemonClient transport and the ``repro client`` CLI against a live server.

Each test serves a real :class:`DaemonServer` on a loopback port from a
background thread, with the daemon on a fake wall clock so nothing
ticks on its own.  A test-side wrapper on ``socket.create_connection``
counts the connections the client opens: one client keeps one
connection and opens another only after a failure or after the daemon
closed the idle one.
"""

import io
import json
import socket
import threading

import pytest

from repro.__main__ import main
from repro.faults.plan import FaultPlan, FaultSpec
from repro.serve.client import DaemonClient
from repro.serve.daemon import DaemonConfig, OrchestratorDaemon
from repro.serve.server import DaemonServer


class _Listening(io.StringIO):
    """Server output that signals once the listener is bound."""

    def __init__(self) -> None:
        super().__init__()
        self.ready = threading.Event()

    def write(self, text: str) -> int:
        if text.startswith("serve: listening on "):
            self.ready.set()
        return super().write(text)


class LiveDaemon:
    """A DaemonServer serving from a background thread until drained."""

    def __init__(self, clock, plan=None, port=0) -> None:
        self.daemon = OrchestratorDaemon(DaemonConfig(), plan=plan, clock=clock)
        out = _Listening()
        self.server = DaemonServer(self.daemon, port=port, out=out)
        self.thread = threading.Thread(target=self.server.serve, daemon=True)
        self.thread.start()
        assert out.ready.wait(10.0), "daemon never listened"
        self.port = self.server.port

    def join(self) -> None:
        self.thread.join(10.0)
        assert not self.thread.is_alive(), "daemon did not drain"

    def stop(self) -> None:
        self.daemon.begin_drain("test done")
        self.join()


@pytest.fixture()
def serve(monkeypatch, clock):
    """Start live daemons; each one still serving is drained at teardown."""
    # Signal handlers can only be installed from the main thread; these
    # servers drain on a client's request or at teardown instead.
    monkeypatch.setattr(DaemonServer, "_install_signals", lambda self: None)
    started = []

    def start(**kwargs) -> LiveDaemon:
        started.append(LiveDaemon(clock, **kwargs))
        return started[-1]

    yield start
    for live in started:
        live.stop()


@pytest.fixture()
def connections(monkeypatch):
    """Every connection opened through ``socket.create_connection``."""
    opened = []
    create = socket.create_connection

    def counting(*args, **kwargs):
        opened.append(create(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(socket, "create_connection", counting)
    return opened


class TestTransport:
    def test_requests_from_one_client_share_one_connection(
        self, serve, connections
    ):
        live = serve()
        with DaemonClient(port=live.port, retries=0) as client:
            ids = [client.deploy("redis")["id"] for _ in range(5)]
            assert all(client.query(req_id)["ok"] for req_id in ids)
            assert client.tick(2)["ok"] is True
            assert client.health()["counters"]["submitted"] == 5
        assert len(connections) == 1

    def test_two_lines_in_one_send_get_two_answers_in_order(self, serve):
        live = serve()
        with socket.create_connection(("127.0.0.1", live.port), 5.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                b'{"op": "query", "id": "first"}\n'
                b'{"op": "query", "id": "second"}\n'
            )
            answers = [json.loads(reader.readline()) for _ in range(2)]
            assert [a["error"] for a in answers] == [
                "unknown deployment id 'first'",
                "unknown deployment id 'second'",
            ]
            # The daemon keeps the connection open for the next line.
            sock.sendall(b'{"op": "health"}\n')
            assert json.loads(reader.readline())["status"] == "serving"

    def test_idle_connection_the_daemon_closed_costs_no_attempt(
        self, serve, connections
    ):
        first = serve()
        slept = []
        with DaemonClient(
            port=first.port, retries=0, sleep=slept.append
        ) as client:
            assert client.drain("restart")["ok"] is True
            first.join()  # the drain closed the client's idle connection
            serve(port=first.port)
            assert client.health()["status"] == "serving"
        assert len(connections) == 2
        assert slept == []

    def test_each_dropped_connection_costs_one_reconnect(
        self, serve, connections
    ):
        plan = FaultPlan(
            faults=(FaultSpec("conn_drop", 0.0, 3600.0, {"probability": 0.5}),),
            seed=3,
        )
        live = serve(plan=plan)
        with DaemonClient(
            port=live.port, retries=20, sleep=lambda s: None
        ) as client:
            responses = [client.deploy("redis") for _ in range(12)]
            health = client.health()
        counters = health["counters"]
        assert counters["dropped_conns"] >= 1
        assert len(connections) == 1 + counters["dropped_conns"]
        # At most once: every deploy was admitted exactly once.
        assert all(r["status"] == "running" for r in responses)
        assert len({r["id"] for r in responses}) == 12
        live.stop()
        assert len(live.daemon.ledger) == counters["submitted"] == 12
        assert counters["submitted"] == (
            counters["finished"] + health["running"] + health["parked"]
        )


class TestClientCli:
    def test_deploy_count_answers_each_over_one_connection(
        self, serve, connections, capsys
    ):
        live = serve()
        code = main([
            "client", "deploy", "--port", str(live.port),
            "--app", "redis", "--count", "3",
        ])
        answers = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert [(a["ok"], a["status"]) for a in answers] == [(True, "running")] * 3
        assert len({a["id"] for a in answers}) == 3
        assert len(connections) == 1

    def test_query_health_and_drain_answer(self, serve, capsys):
        live = serve()
        port = ["--port", str(live.port)]
        assert main(["client", "deploy", *port, "--app", "redis"]) == 0
        req_id = json.loads(capsys.readouterr().out)["id"]
        assert main(["client", "query", *port, "--id", req_id]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "running"
        assert main(["client", "health", *port]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["counters"]["submitted"] == 1
        assert main(["client", "drain", *port]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "draining"
        live.join()
        assert live.daemon.drain_reason == "client drain request"

    def test_deploy_without_app_exits_2(self, serve, connections, capsys):
        live = serve()
        assert main(["client", "deploy", "--port", str(live.port)]) == 2
        assert "client deploy requires --app" in capsys.readouterr().err
        assert connections == []
