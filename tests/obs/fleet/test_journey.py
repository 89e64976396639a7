"""FleetJournal unit behaviour and end-to-end journey completeness."""

import json

from repro import obs
from repro.cluster.fleet import FleetDecision, LeastLoadedPlacement
from repro.cluster.fleet_scenario import FleetScenarioConfig, run_fleet_scenario
from repro.cluster.scenario import ScenarioConfig
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.runtime import active_plan
from repro.hardware.pool import RemotePoolConfig
from repro.obs.fleet.journey import FleetJournal
from repro.orchestrator.policies import InterferenceThresholdPolicy
from repro.workloads.base import MemoryMode

SCENARIO = ScenarioConfig(duration_s=400.0, spawn_interval=(15.0, 30.0), seed=3)


def fleet_config(n_nodes=3):
    return FleetScenarioConfig(
        scenario=SCENARIO, n_nodes=n_nodes, pool=RemotePoolConfig(),
    )


def scheduler():
    return LeastLoadedPlacement(InterferenceThresholdPolicy())


class TestJournal:
    def full_journey(self, journal, app="spark-scan", decided=10.0):
        journal.hop(app, decided, "queued", decided)
        journal.hop(app, decided, "placement", decided, node="n1")
        journal.hop(app, decided, "admission", decided, node="n1")
        journal.hop(app, decided, "finished", decided + 40.0, node="n1")

    def test_hops_stitch_into_one_journey(self):
        journal = FleetJournal()
        self.full_journey(journal)
        assert len(journal) == 1
        journey = journal.journeys[0]
        assert journey.stages() == (
            "queued", "placement", "admission", "finished",
        )
        assert journey.complete()
        assert journey.serving_node == "n1"

    def test_reused_key_is_fifo(self):
        # Two sequential replays can repeat (app, decided_s): the hop
        # must land on the oldest *open* journey, never the closed one.
        journal = FleetJournal()
        self.full_journey(journal)                      # closed
        journal.hop("spark-scan", 10.0, "queued", 10.0)  # reopens the key
        journal.hop("spark-scan", 10.0, "admission", 10.0, node="n0")
        assert len(journal) == 2
        assert journal.journeys[0].complete()
        assert journal.journeys[1].stages() == ("queued", "admission")

    def test_same_tick_same_app_arrivals_split_into_siblings(self):
        # The replay clock advances in whole ticks, so two same-app
        # arrivals can share (app, decided_s).  Their contiguous hop
        # bursts must stitch into two complete sibling journeys, with
        # each finish routed to the journey on its node.
        journal = FleetJournal()
        journal.hop("wordcount", 624.0, "queued", 624.0)
        journal.hop("wordcount", 624.0, "placement", 624.0, node="n4")
        journal.hop("wordcount", 624.0, "admission", 624.0, node="n4")
        journal.hop("wordcount", 624.0, "queued", 624.0)
        journal.hop("wordcount", 624.0, "placement", 624.0, node="n5")
        journal.hop("wordcount", 624.0, "admission", 624.0, node="n5")
        # The n5 sibling finishes first — out of FIFO order.
        journal.hop("wordcount", 624.0, "finished", 675.0, node="n5")
        journal.hop("wordcount", 624.0, "finished", 713.0, node="n4")
        assert len(journal) == 2
        by_node = {j.serving_node: j for j in journal.journeys}
        assert set(by_node) == {"n4", "n5"}
        assert all(j.complete() for j in journal.journeys)
        assert by_node["n5"].hops[-1].sim_time == 675.0
        assert by_node["n4"].hops[-1].sim_time == 713.0

    def test_repeated_placement_attempts_stay_on_one_journey(self):
        # A placement hop is recorded per attempt (the round-robin fleet
        # replay retries the other pool); a retry must not fork sibling
        # journeys.
        journal = FleetJournal()
        journal.hop("a", 0.0, "queued", 0.0)
        journal.hop("a", 0.0, "placement", 0.0, node="n0", mode="remote")
        journal.hop("a", 0.0, "placement", 0.0, node="n1", mode="remote")
        journal.hop("a", 0.0, "admission", 0.0, node="n1")
        journal.hop("a", 0.0, "finished", 9.0, node="n1")
        assert len(journal) == 1
        assert journal.journeys[0].complete()
        assert journal.journeys[0].nodes() == ("n0", "n1")

    def test_abandoned_open_journey_does_not_absorb_new_arrival(self):
        # An earlier replay left a journey open at "queued"; a later
        # same-key arrival's hops must open a fresh sibling, not attach
        # to the stale one.
        journal = FleetJournal()
        journal.hop("a", 5.0, "queued", 5.0)  # abandoned (never placed)
        journal.hop("a", 5.0, "queued", 5.0)
        journal.hop("a", 5.0, "placement", 5.0, node="n0")
        journal.hop("a", 5.0, "admission", 5.0, node="n0")
        journal.hop("a", 5.0, "finished", 20.0, node="n0")
        assert len(journal) == 2
        assert journal.journeys[0].stages() == ("queued",)
        assert journal.journeys[1].complete()

    def test_incomplete_without_admission(self):
        journal = FleetJournal()
        journal.hop("a", 0.0, "placement", 0.0, node="n0")
        journal.hop("a", 0.0, "finished", 5.0, node="n0")
        assert journal.journeys[0].finished
        assert not journal.journeys[0].complete()
        assert journal.incomplete() == [journal.journeys[0]]

    def test_incomplete_on_time_regression(self):
        journal = FleetJournal()
        journal.hop("a", 0.0, "admission", 5.0, node="n0")
        journal.hop("a", 0.0, "finished", 2.0, node="n0")
        assert not journal.journeys[0].complete()

    def test_open_journeys_have_no_terminal_hop(self):
        journal = FleetJournal()
        journal.hop("a", 0.0, "queued", 0.0)
        self.full_journey(journal, app="b")
        open_now = journal.open_journeys()
        assert [j.app_name for j in open_now] == ["a"]

    def test_dropped_closes_a_journey(self):
        journal = FleetJournal()
        journal.hop("a", 0.0, "parked", 0.0, node="n0")
        journal.hop("a", 0.0, "dropped", 9.0, node="n0", attempts=6)
        journey = journal.journeys[0]
        assert journey.closed and not journey.finished
        assert journal.open_journeys() == []

    def test_jsonl_round_trips(self):
        journal = FleetJournal()
        self.full_journey(journal)
        lines = journal.to_jsonl().splitlines()
        assert len(lines) == 1
        row = json.loads(lines[0])
        assert row["app"] == "spark-scan"
        assert row["complete"] is True
        assert row["nodes"] == ["n1"]
        assert [h["stage"] for h in row["hops"]] == [
            "queued", "placement", "admission", "finished",
        ]


class TestChromeTrace:
    def test_nodes_become_threads_and_legs_spans(self):
        journal = FleetJournal()
        journal.hop("a", 0.0, "placement", 0.0, node="n0")
        journal.hop("a", 0.0, "admission", 0.0, node="n1")
        journal.hop("a", 0.0, "finished", 30.0, node="n1")
        trace = journal.to_chrome_trace()
        events = trace["traceEvents"]
        threads = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in threads} == {"n0", "n1"}
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 2
        # The leg is attributed to the node of the earlier hop.
        tid_of = {e["args"]["name"]: e["tid"] for e in threads}
        hop1, hop2 = spans
        assert hop1["tid"] == tid_of["n0"]
        assert hop2["tid"] == tid_of["n1"]
        # Zero-length legs render as 1 us slivers.
        assert hop1["dur"] == 1.0
        assert hop2["dur"] == 30.0 * 1e6


class TestFleetRunJourneys:
    def test_disabled_run_has_no_journal(self):
        fleet = run_fleet_scenario(fleet_config(), scheduler=scheduler())
        assert fleet.journal is None
        assert all(engine.journey is None for engine in fleet.engines)

    def test_every_finished_deployment_has_a_complete_journey(self):
        with obs.session():
            fleet = run_fleet_scenario(fleet_config(), scheduler=scheduler())
            journal = fleet.journal
            assert journal is not None
            completed = sum(len(e.trace.records) for e in fleet.engines)
            finished = journal.finished()
            assert len(finished) == completed > 0
            assert all(j.complete() for j in finished), [
                j.to_dict() for j in journal.incomplete()
            ]
            # The replay queues every arrival before placing it.
            assert all(j.stages()[0] == "queued" for j in finished)

    def test_outage_journeys_record_park_and_stay_complete(self):
        # Pin every placement to remote on node 0 so the outage has no
        # local fallback to hide behind — arrivals must park and retry.
        class PinnedRemote:
            def __call__(self, profile, fleet):
                return FleetDecision(0, MemoryMode.REMOTE)

        plan = FaultPlan(
            faults=(
                FaultSpec(kind="link_outage", start_s=30.0, duration_s=60.0),
            ),
            seed=21,
        )
        with obs.session():
            with active_plan(plan):
                fleet = run_fleet_scenario(
                    fleet_config(), scheduler=PinnedRemote()
                )
            journal = fleet.journal
            parked = [
                j for j in journal.finished() if "parked" in j.stages()
            ]
            assert parked, "outage never parked a placement"
            assert all(j.complete() for j in parked)

    def test_dump_writes_journey_artifacts(self, tmp_path):
        with obs.session():
            run_fleet_scenario(fleet_config(), scheduler=scheduler())
            paths = obs.dump(tmp_path / "dump")
        for name in obs.JOURNEY_ARTIFACT_NAMES:
            assert name in paths and paths[name].exists(), name
        rows = [
            json.loads(line)
            for line in paths["journeys.jsonl"].read_text().splitlines()
        ]
        assert rows and all("hops" in row for row in rows)
        trace = json.loads(paths["journeys_trace.json"].read_text())
        assert isinstance(trace["traceEvents"], list)

    def test_single_node_dump_omits_journey_artifacts(self, tmp_path):
        from repro.cluster.scenario import run_scenario

        with obs.session():
            run_scenario(ScenarioConfig(duration_s=100.0, seed=6))
            paths = obs.dump(tmp_path / "dump")
        for name in obs.JOURNEY_ARTIFACT_NAMES:
            assert name not in paths
