"""Minimal retrying client for the daemon's line-JSON protocol."""

from __future__ import annotations

import json
import random
import select
import socket
import time

__all__ = ["DaemonClient", "DaemonClientError"]


class DaemonClientError(RuntimeError):
    """The daemon could not be reached or answered garbage."""


class DaemonClient:
    """Retrying client that keeps one connection to the daemon.

    The first request connects; later requests reuse the socket while
    the daemon keeps it open.  Any failure (an OSError, EOF before a
    full line, bad JSON) closes it, so the next attempt reconnects.  The
    daemon closes a connection only before it handles a line (its
    ``conn_drop`` fault windows, at-most-once) or after it has answered
    one (error replies, drain), so retrying a dropped request is safe: a
    dropped deploy was never admitted.  A request whose answer timed out
    may still run, so its retry may run it twice.  One client is one
    connection and sends one request at a time: do not share it across
    threads.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout_s: float = 5.0,
        retries: int = 5,
        backoff_s: float = 0.05,
        sleep=time.sleep,
        jitter_seed: int | None = None,
    ) -> None:
        if port <= 0:
            raise DaemonClientError("client needs the daemon's port")
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.sleep = sleep
        # Seeded backoff jitter decorrelates a herd of clients retrying
        # the same outage; None seeds from the port so distinct clients
        # still spread while any given seed replays the exact schedule.
        self._jitter_rng = random.Random(
            port if jitter_seed is None else jitter_seed
        )
        self._sock: socket.socket | None = None

    def __enter__(self) -> DaemonClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection; the next request opens a new one."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _backoff(self, attempt: int) -> float:
        """Linear backoff with up to +50% seeded jitter per attempt."""
        return self.backoff_s * attempt * (1.0 + 0.5 * self._jitter_rng.random())

    def _connection(self) -> socket.socket:
        """The open connection, or a new one.

        An idle connection has nothing to read unless the daemon closed
        or reset it (a drain, then perhaps a restart on the same port),
        so a readable one is replaced before it costs an attempt.
        """
        if self._sock is not None and select.select([self._sock], [], [], 0)[0]:
            self.close()
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
        return self._sock

    def request(self, payload: dict) -> dict:
        """Send one request; retries dropped/failed connections."""
        line = json.dumps(payload).encode("utf-8") + b"\n"
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.sleep(self._backoff(attempt))
            try:
                sock = self._connection()
                sock.sendall(line)
                return json.loads(self._read_line(sock))
            except (OSError, json.JSONDecodeError, EOFError) as error:
                self.close()
                last_error = error
        raise DaemonClientError(
            f"daemon at {self.host}:{self.port} unreachable after "
            f"{self.retries + 1} attempts: {last_error}"
        )

    @staticmethod
    def _read_line(sock: socket.socket) -> str:
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                raise EOFError("connection closed before a full response")
            chunks.append(chunk)
            if b"\n" in chunk:
                break
        return b"".join(chunks).split(b"\n", 1)[0].decode("utf-8")

    # -- convenience wrappers ------------------------------------------------
    def deploy(self, app: str, duration: float | None = None) -> dict:
        payload: dict = {"op": "deploy", "app": app}
        if duration is not None:
            payload["duration"] = duration
        return self.request(payload)

    def complete(self, req_id: str) -> dict:
        return self.request({"op": "complete", "id": req_id})

    def query(self, req_id: str) -> dict:
        return self.request({"op": "query", "id": req_id})

    def health(self) -> dict:
        return self.request({"op": "health"})

    def drain(self, reason: str | None = None) -> dict:
        payload: dict = {"op": "drain"}
        if reason is not None:
            payload["reason"] = reason
        return self.request(payload)

    def tick(self, n: int = 1) -> dict:
        return self.request({"op": "tick", "n": n})
