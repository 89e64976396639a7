"""repro.cluster — discrete-time cluster simulation.

Ties workload demand models to the hardware testbed: the
:class:`ClusterEngine` resolves contention each tick and advances
deployments; :mod:`repro.cluster.scenario` generates the randomized
one-hour deployment scenarios of §V-B1; :class:`Trace` records the
metric time series and per-deployment outcomes consumed by the Fig. 6
correlation analysis, the Predictor datasets and the §VI-B evaluation.
"""

from repro.cluster.deployment import Deployment, DeploymentRecord
from repro.cluster.engine import CapacityError, ClusterEngine, NodeDownError
from repro.cluster.failover import (
    FailoverConfig,
    FleetHealthManager,
    NodeHealth,
)
from repro.cluster.fleet import (
    ClusterFleet,
    FleetDecision,
    LeastLoadedPlacement,
    PoolAwarePlacement,
)
from repro.cluster.fleet_scenario import FleetScenarioConfig, run_fleet_scenario
from repro.cluster.scenario import (
    Arrival,
    ScenarioConfig,
    default_pool,
    generate_arrivals,
    run_scenario,
)
from repro.cluster.trace import Trace

__all__ = [
    "Arrival",
    "CapacityError",
    "ClusterEngine",
    "ClusterFleet",
    "Deployment",
    "FailoverConfig",
    "FleetDecision",
    "FleetHealthManager",
    "FleetScenarioConfig",
    "LeastLoadedPlacement",
    "NodeDownError",
    "NodeHealth",
    "PoolAwarePlacement",
    "DeploymentRecord",
    "ScenarioConfig",
    "run_fleet_scenario",
    "Trace",
    "default_pool",
    "generate_arrivals",
    "run_scenario",
]
