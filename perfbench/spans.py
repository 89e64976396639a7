"""Span recording for traced runs, and the per-layer metrics built from it.

Each wrapper records one span per call into a layer's public function:
its name, start, end, the span open when it began (its parent) and an
integer tag (rows, a request's sequence number, a throttle flag).
Spans stay in memory in flat arrays and are written out once, when the
run ends.  A layer's self time is its spans' durations minus the time
their direct child spans cover; calls between wrapped functions run on
one thread, so children never overlap.

The wrappers are installed from here, around the program's public
classes; nothing in ``src/`` knows about them.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path

import numpy as np


class SpanLog:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: Counters that need no span (deployments walked by a scan).
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, owner, attr: str, label, tag=None, result_tag=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``label`` is the span name, or a callable mapping the call's
        positional arguments to ``(name, tag)``.  ``tag`` maps the
        arguments to the span's tag; ``result_tag`` maps the return value.
        """
        original = getattr(owner, attr)
        fixed = self.name_id(label) if isinstance(label, str) else None
        names, parents, tags = self.name, self.parent, self.tag
        starts, ends, stack = self.start, self.end, self._stack
        name_id, clock = self.name_id, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(starts)
            if fixed is None:
                name, value = label(args)
                names.append(name_id(name))
            else:
                names.append(fixed)
                value = tag(args) if tag is not None else 0
            tags.append(value)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if result_tag is not None:
                tags[index] = result_tag(result)
            return result

        setattr(owner, attr, traced)

    def count_property(self, owner, attr: str, counter: str, amount) -> None:
        """Count ``amount(obj)`` each time property ``owner.attr`` is read."""
        fget = owner.__dict__[attr].fget
        counts = self.counts
        counts[counter] = 0

        def counted(obj):
            counts[counter] += amount(obj)
            return fget(obj)

        setattr(owner, attr, property(counted))

    # -- persistence -----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(self.counts)),
            **self.arrays(),
        )


def load(path: Path) -> tuple[list[str], dict, dict[str, np.ndarray]]:
    with np.load(path) as data:
        names = json.loads(str(data["names"]))
        counts = json.loads(str(data["counts"]))
        arrays = {k: data[k] for k in ("name", "parent", "tag", "start", "end")}
    return names, counts, arrays


def _request_label(args) -> tuple[str, int]:
    """``serve.<op>`` and the request's sequence number from its line."""
    try:
        data = json.loads(args[1])
        return f"serve.{data.get('op')}", int(data.get("seq", -1))
    except (ValueError, TypeError, AttributeError):
        return "serve.malformed", -1


def install(log: SpanLog) -> None:
    """Wrap every layer's public entry points (see README.md's layer map)."""
    from repro.cluster.deployment import Deployment
    from repro.cluster.engine import ClusterEngine
    from repro.cluster.fleet import ClusterFleet, LeastLoadedPlacement
    from repro.cluster.trace import Trace
    from repro.hardware.pool import RemotePool
    from repro.hardware.testbed import Testbed
    from repro.models.performance import PerformancePredictor
    from repro.models.predictor import Predictor
    from repro.models.system_state import SystemStatePredictor
    from repro.nn.recurrent import LSTM
    from repro.obs.audit import DecisionAuditLog
    from repro.obs.metrics import MetricsRegistry
    from repro.orchestrator.policies import AdriasPolicy
    from repro.serve.daemon import OrchestratorDaemon
    from repro.serve.safety import SafetyMonitor

    log.wrap(LSTM, "forward", "nn.lstm", tag=lambda args: len(args[1]))
    log.wrap(Predictor, "predict_both_modes", "models.predict")
    log.wrap(SystemStatePredictor, "predict", "models.system_state")
    log.wrap(PerformancePredictor, "predict", "models.performance")
    log.wrap(Trace, "window", "cluster.trace.window")
    log.wrap(AdriasPolicy, "decide", "orchestrator.decide")
    log.wrap(ClusterEngine, "tick", "cluster.engine.tick")
    log.count_property(
        ClusterEngine, "running", "scanned", lambda e: len(e.deployments)
    )
    log.wrap(Deployment, "advance", "cluster.deployment.advance")
    log.wrap(Testbed, "resolve", "hardware.resolve")
    log.wrap(Testbed, "sample_counters", "hardware.counters")
    log.wrap(ClusterFleet, "tick", "cluster.fleet.tick")
    log.wrap(
        RemotePool, "arbitrate", "hardware.pool.arbitrate",
        result_tag=lambda factors: int(min(factors, default=1.0) < 1.0 - 1e-12),
    )
    # PoolAwarePlacement inherits __call__, so this covers both schedulers.
    log.wrap(LeastLoadedPlacement, "__call__", "cluster.fleet.place")
    log.wrap(ClusterFleet, "node_load", "cluster.fleet.node_load")
    log.wrap(OrchestratorDaemon, "handle_line", _request_label)
    log.wrap(SafetyMonitor, "review", "serve.safety")
    for kind in ("counter", "gauge", "histogram"):
        log.wrap(MetricsRegistry, kind, "obs.lookup")
    log.wrap(DecisionAuditLog, "record", "obs.audit")


# -- per-layer metrics ---------------------------------------------------------
def summarize(names: list[str], arrays: dict[str, np.ndarray]) -> dict:
    """Per span name: calls, total and self time (ms), tag sum, and the
    number of spans of each name whose direct parent has this name."""
    ids, parent = arrays["name"], arrays["parent"]
    duration = arrays["end"] - arrays["start"]
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(ids)
    )
    self_time = duration - covered
    parent_name = np.full(len(ids), -1, dtype=np.int64)
    parent_name[has_parent] = ids[parent[has_parent]]
    out = {}
    for index, name in enumerate(names):
        mask = ids == index
        children = {
            names[int(child)]: int(count)
            for child, count in zip(*np.unique(
                ids[parent_name == index], return_counts=True
            ))
        }
        out[name] = {
            "calls": int(mask.sum()),
            "total_ms": float(duration[mask].sum() * 1e3),
            "self_ms": float(self_time[mask].sum() * 1e3),
            "tag_sum": int(arrays["tag"][mask].sum()),
            "children": children,
        }
    return out


def layer_values(summary: dict, counts: dict, extra: dict) -> tuple[dict, dict]:
    """Every per-layer metric by name (0 where the layer never ran), and
    for each ratio its base: ``[numerator, what, denominator, what]``.

    ``extra`` carries what the workload counts outside the spans:
    ``degraded`` decisions, ``downgrades``, and for serve-daemon the
    ``wait_ms_p50``/``wait_ms_p99``/``failed`` client figures.
    """
    bases: dict[str, list] = {}

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_ms(*names):
        return sum(summary.get(n, {}).get("self_ms", 0.0) for n in names)

    def children(parent_names, child):
        return sum(
            summary.get(p, {}).get("children", {}).get(child, 0)
            for p in parent_names
        )

    def ratio(metric, part, part_what, base, base_what):
        bases[metric] = [part, part_what, base, base_what]
        return part / base if base else 0.0

    ticks = calls("cluster.engine.tick")
    places = calls("cluster.fleet.place")
    tick_spans = ("cluster.engine.tick", "cluster.fleet.tick")
    values = {
        "nn.lstm.rows": summary.get("nn.lstm", {}).get("tag_sum", 0),
        "nn.lstm.self_ms": self_ms("nn.lstm"),
        "models.predict.calls": calls("models.predict"),
        "models.predict.self_ms": self_ms("models.predict"),
        "models.system_state.calls": calls("models.system_state"),
        "models.system_state.self_ms": self_ms("models.system_state"),
        "models.performance.calls": calls("models.performance"),
        "models.performance.self_ms": self_ms("models.performance"),
        "cluster.trace.window.calls": calls("cluster.trace.window"),
        "cluster.trace.window.self_ms": self_ms("cluster.trace.window"),
        "orchestrator.decide.self_ms": self_ms("orchestrator.decide"),
        "orchestrator.degraded": extra.get("degraded", 0),
        "cluster.engine.ticks": ticks,
        "cluster.engine.tick.self_ms": self_ms("cluster.engine.tick"),
        "cluster.engine.scanned_per_tick": ratio(
            "cluster.engine.scanned_per_tick", counts.get("scanned", 0),
            "deployments walked by ClusterEngine.running", ticks, "engine ticks",
        ),
        "cluster.deployment.advance.self_ms": self_ms("cluster.deployment.advance"),
        "hardware.resolve.calls": calls("hardware.resolve"),
        "hardware.resolve.self_ms": self_ms("hardware.resolve"),
        "hardware.counters.self_ms": self_ms("hardware.counters"),
        "cluster.fleet.ticks": calls("cluster.fleet.tick"),
        "cluster.fleet.tick.self_ms": self_ms("cluster.fleet.tick"),
        "hardware.pool.arbitrate.self_ms": self_ms("hardware.pool.arbitrate"),
        "hardware.pool.throttled_frac": ratio(
            "hardware.pool.throttled_frac",
            summary.get("hardware.pool.arbitrate", {}).get("tag_sum", 0),
            "throttled fleet ticks", calls("hardware.pool.arbitrate"),
            "fleet ticks (arbitrations)",
        ),
        "cluster.fleet.place.calls": places,
        "cluster.fleet.place.self_ms": self_ms("cluster.fleet.place"),
        "cluster.fleet.node_load_per_place": ratio(
            "cluster.fleet.node_load_per_place",
            children(("cluster.fleet.place",), "cluster.fleet.node_load"),
            "node_load calls inside placements", places, "placements",
        ),
        "serve.deploy.self_ms": self_ms("serve.deploy"),
        "serve.query.self_ms": self_ms("serve.query"),
        "serve.complete.self_ms": self_ms("serve.complete"),
        "serve.tick.self_ms": self_ms("serve.tick"),
        "serve.safety.self_ms": self_ms("serve.safety"),
        "serve.safety.downgrades": extra.get("downgrades", 0),
        "serve.wait_ms_p50": extra.get("wait_ms_p50", 0.0),
        "serve.wait_ms_p99": extra.get("wait_ms_p99", 0.0),
        "serve.failed": extra.get("failed", 0),
        "obs.lookups_per_tick": ratio(
            "obs.lookups_per_tick", children(tick_spans, "obs.lookup"),
            "registry lookups inside engine/fleet ticks", ticks, "engine ticks",
        ),
        "obs.self_ms": self_ms("obs.lookup", "obs.audit"),
        "obs.audit.records": calls("obs.audit"),
    }
    ratio(
        "Ŝ memo miss ratio", calls("models.system_state"), "system-state forwards",
        calls("models.predict"), "predictions",
    )
    ratio(
        "LSTM rows per prediction", values["nn.lstm.rows"], "LSTM rows",
        calls("models.predict"), "predictions",
    )
    return values, bases
