"""Cross-node deployment lifecycle tracing for fleet runs.

A *journey* is the full life of one deployment as the rack sees it:
``queued`` (the arrival enters the replay) → ``placement`` (the global
scheduler picks a node) → ``admission`` (the node's engine accepts it)
→ optional ``parked`` / ``retry`` / ``dropped`` hops while a link
outage is waited out → ``finished``.  Every hop carries the fleet
clock and the node that produced it, so a deployment that is decided
on one node, parked there through an outage and finally served can be
replayed hop by hop — the cross-node counterpart of the single-node
decision-audit log, and joined to it by the same
``(app_name, decided_s)`` key :class:`repro.obs.audit.DecisionAuditLog`
uses for its outcome join.

Journeys live in one session-global :class:`FleetJournal` (mirroring
the runtime's single audit log): every :class:`ClusterFleet`
constructed while observability is enabled records into it through
per-node :class:`NodeJourney` recorders, and
:func:`repro.obs.dump` writes ``journeys.jsonl`` plus a Chrome-trace
rendering (``journeys_trace.json``) whenever the journal is non-empty.
The journal never touches an RNG and is only ever created behind
``obs.enabled()`` — disabled fleet runs stay bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "JourneyHop",
    "DeploymentJourney",
    "FleetJournal",
    "NodeJourney",
    "session_journal",
    "active_journal",
    "reset_journal",
    "HOP_STAGES",
]

#: Recognized lifecycle stages, in their canonical order of appearance.
HOP_STAGES = (
    "queued",      # arrival entered the fleet replay
    "placement",   # global scheduler chose (node, mode)
    "admission",   # the node's engine accepted the deployment
    "parked",      # remote placement parked in an outage retry queue
    "retry",       # a parked retry attempt failed (backoff continues)
    "dropped",     # parked deployment dropped after the retry limit
    "finished",    # the deployment completed on its serving node
)

#: Stages a single deployment passes at most once — used to split
#: same-key journeys (two same-app arrivals decided in one fleet tick).
_UNIQUE_STAGES = frozenset(("queued", "placement", "admission", "parked"))
#: Stages after which a journey accepts no further hops.
_TERMINAL_STAGES = ("finished", "dropped")


@dataclass
class JourneyHop:
    """One lifecycle transition, stamped on the fleet clock."""

    stage: str
    sim_time: float
    node: str | None = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"stage": self.stage, "sim": round(self.sim_time, 6)}
        if self.node is not None:
            out["node"] = self.node
        if self.detail:
            out.update(self.detail)
        return out


@dataclass
class DeploymentJourney:
    """All hops of one deployment, keyed by its decision time."""

    journey_id: int
    app_name: str
    decided_s: float
    hops: list[JourneyHop] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return any(h.stage == "finished" for h in self.hops)

    @property
    def dropped(self) -> bool:
        return any(h.stage == "dropped" for h in self.hops)

    @property
    def closed(self) -> bool:
        return self.finished or self.dropped

    @property
    def serving_node(self) -> str | None:
        """The node that finished (or last touched) the deployment."""
        for hop in reversed(self.hops):
            if hop.node is not None:
                return hop.node
        return None

    def nodes(self) -> tuple[str, ...]:
        """Every node the journey touched, in first-seen order."""
        seen: list[str] = []
        for hop in self.hops:
            if hop.node is not None and hop.node not in seen:
                seen.append(hop.node)
        return tuple(seen)

    def stages(self) -> tuple[str, ...]:
        return tuple(h.stage for h in self.hops)

    def complete(self) -> bool:
        """A finished journey with a coherent hop sequence.

        Complete means: ends in ``finished``, contains an ``admission``
        (the engine really ran it), hop times are non-decreasing, and no
        hop follows the terminal one — the acceptance predicate for
        "no orphaned placement or retry hops".
        """
        if not self.finished:
            return False
        stages = self.stages()
        if stages[-1] != "finished" or "admission" not in stages:
            return False
        times = [h.sim_time for h in self.hops]
        return all(b >= a - 1e-9 for a, b in zip(times, times[1:]))

    def to_dict(self) -> dict:
        return {
            "journey_id": self.journey_id,
            "app": self.app_name,
            "decided_s": round(self.decided_s, 6),
            "nodes": list(self.nodes()),
            "complete": self.complete(),
            "hops": [h.to_dict() for h in self.hops],
        }


class FleetJournal:
    """Append-only journey store shared by every fleet in a session.

    Hops arrive from independent call sites (replay loop, placement,
    engine admission, retry queue, finish loop) and are stitched by the
    ``(app_name, round(decided_s, 6))`` key — the same key the audit
    log joins outcomes on.  Re-used keys are real: two same-app
    arrivals can be decided in the same fleet tick (the replay clock
    advances in whole ticks), and sequential scenario replays repeat
    times.  Disambiguation is FIFO with two refinements: a
    once-per-deployment stage (``queued``/``placement``/``admission``/
    ``parked``) lands on the oldest open journey that *lacks* that
    stage (opening a sibling journey when every open one has it), and
    a retry/terminal hop prefers the oldest open journey already
    touching its node before falling back to the oldest open overall.
    Same-key journeys on one node remain interchangeable — identical
    app, decision time and lane — so FIFO is exact there.
    """

    def __init__(self) -> None:
        self.journeys: list[DeploymentJourney] = []
        self._open: dict[tuple[str, float], list[DeploymentJourney]] = {}

    def __len__(self) -> int:
        return len(self.journeys)

    @staticmethod
    def _key(app_name: str, decided_s: float) -> tuple[str, float]:
        return (app_name, round(decided_s, 6))

    def hop(
        self,
        app_name: str,
        decided_s: float,
        stage: str,
        sim_time: float,
        node: str | None = None,
        **detail,
    ) -> None:
        """Record one lifecycle hop (opens a journey on first sight)."""
        key = self._key(app_name, decided_s)
        queue = self._open.get(key) or []
        journey = None
        if stage in _UNIQUE_STAGES:
            # One per deployment.  Hops of one deployment are recorded
            # contiguously (the replay finishes placing an arrival
            # before touching the next), so the sibling this hop
            # belongs to is the *newest* open journey still missing
            # the stage — an older open sibling missing it is an
            # abandoned journey from an earlier replay.
            for candidate in reversed(queue):
                if stage not in candidate.stages():
                    journey = candidate
                    break
            if journey is None and stage == "placement" and queue:
                # One placement hop per *attempt*: the round-robin fleet
                # replay tries the other pool when the first does not
                # fit, and that retry belongs to the deployment being
                # placed right now.
                journey = queue[-1]
        else:
            # Retry/terminal hops carry the acting node — prefer the
            # sibling journey already on that lane, else oldest open.
            if node is not None:
                for candidate in queue:
                    if node in candidate.nodes():
                        journey = candidate
                        break
            if journey is None and queue:
                journey = queue[0]
        if journey is None:
            # No matching open journey (including a terminal hop on a
            # run started before obs was enabled): open one — it will
            # simply report incomplete if it never sees an admission.
            journey = DeploymentJourney(
                journey_id=len(self.journeys),
                app_name=app_name,
                decided_s=round(decided_s, 6),
            )
            self.journeys.append(journey)
            self._open.setdefault(key, []).append(journey)
        journey.hops.append(
            JourneyHop(stage=stage, sim_time=sim_time, node=node,
                       detail=dict(detail))
        )
        if stage in _TERMINAL_STAGES:
            queue = self._open.get(key)
            if queue:
                queue.remove(journey)
                if not queue:
                    del self._open[key]

    # -- queries -------------------------------------------------------------
    def finished(self) -> list[DeploymentJourney]:
        return [j for j in self.journeys if j.finished]

    def incomplete(self) -> list[DeploymentJourney]:
        """Finished journeys that fail the completeness predicate."""
        return [j for j in self.journeys if j.finished and not j.complete()]

    def open_journeys(self) -> list[DeploymentJourney]:
        """Journeys with no terminal hop yet (running or abandoned)."""
        return [j for j in self.journeys if not j.closed]

    # -- export --------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(j.to_dict()) + "\n" for j in self.journeys
        )

    def to_chrome_trace(self) -> dict:
        """Journeys as Chrome trace-event JSON on the simulated clock.

        Each node becomes a thread; consecutive hop pairs of a journey
        become ``ph:"X"`` complete events attributed to the node of the
        *earlier* hop (the node responsible for that leg), so a parked
        deployment shows its outage wait on the node that parked it.
        Zero-length legs are emitted as 1 µs slivers so Perfetto renders
        them.  Loadable in ``chrome://tracing`` exactly like the
        runtime's ``trace.json``.
        """
        nodes = sorted(
            {h.node for j in self.journeys for h in j.hops if h.node is not None}
        )
        tid_of = {node: i + 1 for i, node in enumerate(nodes)}
        events: list[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": node},
            }
            for node, tid in tid_of.items()
        ]
        for journey in self.journeys:
            for prev, nxt in zip(journey.hops, journey.hops[1:]):
                tid = tid_of.get(prev.node) or tid_of.get(nxt.node) or 0
                duration_us = max((nxt.sim_time - prev.sim_time) * 1e6, 1.0)
                events.append(
                    {
                        "name": f"{journey.app_name}:{prev.stage}→{nxt.stage}",
                        "ph": "X",
                        "cat": "journey",
                        "pid": 1,
                        "tid": tid,
                        "ts": prev.sim_time * 1e6,
                        "dur": duration_us,
                        "args": {
                            "journey_id": journey.journey_id,
                            "app": journey.app_name,
                            "from": prev.stage,
                            "to": nxt.stage,
                            **prev.detail,
                        },
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def reset(self) -> None:
        self.journeys.clear()
        self._open.clear()


class NodeJourney:
    """A journal handle bound to one node label.

    Engines hold one of these (or ``None`` when obs is off) so every
    hop they record is attributed without the engine knowing about the
    fleet — the single-node analogue of a node-labeled metric view.
    """

    __slots__ = ("journal", "node")

    def __init__(self, journal: FleetJournal, node: str) -> None:
        self.journal = journal
        self.node = node

    def hop(
        self, app_name: str, decided_s: float, stage: str, sim_time: float,
        **detail,
    ) -> None:
        self.journal.hop(
            app_name, decided_s, stage, sim_time, node=self.node, **detail
        )


# -- session-global journal ----------------------------------------------------

_journal: FleetJournal | None = None


def session_journal() -> FleetJournal:
    """The session's journal, created on first use (fleet ctor path)."""
    global _journal
    if _journal is None:
        _journal = FleetJournal()
    return _journal


def active_journal() -> FleetJournal | None:
    """The journal if one exists — never creates (dump/reset path)."""
    return _journal


def reset_journal() -> None:
    """Drop the session journal (called by ``obs.disable``/``reset``)."""
    global _journal
    _journal = None
