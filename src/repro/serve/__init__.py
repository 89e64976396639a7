"""repro.serve — the long-running orchestrator daemon (DESIGN.md §15).

A :class:`~repro.serve.daemon.OrchestratorDaemon` owns a live cluster
fleet and admits deployments through a declarative
:class:`~repro.serve.safety.SafetyEnvelope`;
:class:`~repro.serve.server.DaemonServer` exposes it over a
newline-delimited-JSON socket with graceful SIGTERM drain, a wedged-tick
watchdog and crash-safe warm-restart checkpoints.
"""

from repro.serve.client import DaemonClient, DaemonClientError
from repro.serve.daemon import (
    DaemonConfig,
    OrchestratorDaemon,
    load_daemon_checkpoint,
)
from repro.serve.safety import (
    ENVELOPE_VERSION,
    SafetyConfigError,
    SafetyConstraint,
    SafetyEnvelope,
    SafetyMonitor,
    SafetyVerdict,
)
from repro.serve.server import DaemonServer

__all__ = [
    "ENVELOPE_VERSION",
    "DaemonClient",
    "DaemonClientError",
    "DaemonConfig",
    "DaemonServer",
    "OrchestratorDaemon",
    "SafetyConfigError",
    "SafetyConstraint",
    "SafetyEnvelope",
    "SafetyMonitor",
    "SafetyVerdict",
    "load_daemon_checkpoint",
]
