"""Checkpoint/resume: the resumed trace is bit-identical to uninterrupted."""

import json

import pytest

from repro.cluster.scenario import ScenarioConfig, run_scenario
from repro.faults.checkpoint import (
    load_checkpoint,
    resume_scenario,
    save_checkpoint,
)
from repro.faults.errors import CheckpointError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.runtime import active_plan
from repro.models import FeatureConfig, SignatureLibrary
from repro.orchestrator.policies import AdriasPolicy, RandomPolicy
from repro.workloads.base import MemoryMode
from tests.helpers import assert_traces_identical

CONFIG = ScenarioConfig(duration_s=400.0, spawn_interval=(15.0, 30.0), seed=3)

#: The link stays down from 250 s to past the end of the run, so the
#: last checkpoint holds remote deployments parked in the retry queue.
OUTAGE_TO_END = FaultPlan(
    faults=(FaultSpec(kind="link_outage", start_s=250.0, duration_s=1000.0),),
    seed=21,
)


def faulty_plan():
    return FaultPlan(
        faults=(
            FaultSpec(
                kind="telemetry_corrupt", start_s=40.0, duration_s=60.0,
                params={"probability": 0.4},
            ),
            FaultSpec(kind="link_outage", start_s=150.0, duration_s=60.0),
        ),
        seed=21,
    )


class TestRoundTrip:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        full = run_scenario(
            CONFIG,
            scheduler=RandomPolicy(seed=5),
            checkpoint_path=ckpt,
            checkpoint_every_s=120.0,
        )
        assert ckpt.exists()
        resumed = resume_scenario(ckpt, scheduler=RandomPolicy(seed=5))
        assert_traces_identical(full, resumed)

    def test_resume_under_faults_matches(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        with active_plan(faulty_plan()):
            full = run_scenario(
                CONFIG,
                scheduler=RandomPolicy(seed=5),
                checkpoint_path=ckpt,
                checkpoint_every_s=100.0,
            )
        # The checkpoint embeds the fault plan; no armed plan is needed
        # (or consulted) on the resume path.
        resumed = resume_scenario(ckpt, scheduler=RandomPolicy(seed=5))
        assert_traces_identical(full, resumed)

    def test_checkpoint_restores_injector_and_policy_state(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        with active_plan(faulty_plan()):
            run_scenario(
                CONFIG,
                scheduler=RandomPolicy(seed=5),
                checkpoint_path=ckpt,
                checkpoint_every_s=100.0,
            )
        data = load_checkpoint(ckpt)
        assert data["injector"] is not None
        assert data["injector"]["plan"]["seed"] == 21
        assert data["policy"] is not None
        assert "rng_state" in data["policy"]
        assert data["arrivals_done"] > 0


class TestValidation:
    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no scenario checkpoint"):
            load_checkpoint(tmp_path / "nope.json")

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{truncated")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_missing_fields_raise(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"version": 3, "scenario": {}}))
        with pytest.raises(CheckpointError, match="missing fields"):
            load_checkpoint(path)

    def test_unknown_workload_raises(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        run_scenario(
            CONFIG,
            scheduler=RandomPolicy(seed=5),
            checkpoint_path=ckpt,
            checkpoint_every_s=120.0,
        )
        with pytest.raises(CheckpointError, match="unknown workload"):
            resume_scenario(ckpt, scheduler=RandomPolicy(seed=5), pool=[])


class TestStalePayloads:
    """Old/hand-edited payloads raise CheckpointError, not KeyError."""

    @pytest.fixture()
    def ckpt(self, tmp_path):
        from repro.cluster.engine import ClusterEngine
        from repro.cluster.scenario import default_pool
        from repro.hardware import Testbed, TestbedConfig
        from repro.workloads.base import MemoryMode, WorkloadKind

        pool = default_pool()
        engine = ClusterEngine(testbed=Testbed(TestbedConfig(seed=CONFIG.seed)))
        ibench = next(
            p for p in pool if p.kind is WorkloadKind.INTERFERENCE
        )
        engine.deploy(ibench, MemoryMode.LOCAL, duration_s=5.0)
        engine.run_for(10.0)  # -> one finished record
        engine.deploy(ibench, MemoryMode.LOCAL, duration_s=1000.0)
        path = save_checkpoint(
            tmp_path / "stale.json",
            config=CONFIG,
            engine=engine,
            arrivals_done=0,
        )
        data = json.loads(path.read_text())
        assert data["engine"]["deployments"], "fixture needs a live deployment"
        assert data["engine"]["trace"]["records"], "fixture needs a record"
        return path, data

    def mutate(self, ckpt, strip):
        path, data = ckpt
        strip(data)
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="missing\\s+field"):
            resume_scenario(path, scheduler=RandomPolicy(seed=5))

    def test_scenario_field_missing(self, ckpt):
        self.mutate(ckpt, lambda d: d["scenario"].pop("seed"))

    def test_engine_field_missing(self, ckpt):
        self.mutate(ckpt, lambda d: d["engine"].pop("counter_rng"))

    def test_deployment_field_missing(self, ckpt):
        self.mutate(
            ckpt, lambda d: d["engine"]["deployments"][0].pop("app_id")
        )

    def test_record_field_missing(self, ckpt):
        self.mutate(
            ckpt,
            lambda d: d["engine"]["trace"]["records"][0].pop("finish_time"),
        )

    def test_trace_field_missing(self, ckpt):
        self.mutate(ckpt, lambda d: d["engine"]["trace"].pop("times"))


class TestManualSave:
    def test_save_mid_run_and_resume(self, tmp_path):
        """save_checkpoint is usable outside the scenario loop too."""
        from repro.cluster.engine import ClusterEngine
        from repro.hardware import Testbed, TestbedConfig

        engine = ClusterEngine(testbed=Testbed(TestbedConfig(seed=CONFIG.seed)))
        engine.run_for(10.0)
        path = save_checkpoint(
            tmp_path / "manual.json",
            config=CONFIG,
            engine=engine,
            arrivals_done=0,
        )
        data = load_checkpoint(path)
        assert data["engine"]["now"] == 10.0
        assert data["injector"] is None
        assert data["policy"] is None


class _Stop(Exception):
    """Ends a resumed replay at its first decision."""


class StopAtFirstDecision(RandomPolicy):
    def decide(self, profile, engine):
        raise _Stop


class TestSharedCodec:
    """The scenario kind of the one checkpoint codec (format version 2)."""

    @pytest.fixture()
    def run(self, tmp_path):
        """The full trace and its last checkpoint, taken mid-outage."""
        ckpt = tmp_path / "ckpt.json"
        with active_plan(OUTAGE_TO_END):
            full = run_scenario(
                CONFIG,
                scheduler=RandomPolicy(seed=5),
                checkpoint_path=ckpt,
                checkpoint_every_s=100.0,
            )
        assert load_checkpoint(ckpt)["engine"]["retry_queue"], (
            "fixture needs parked deployments"
        )
        return full, ckpt

    @pytest.fixture()
    def parked(self, run):
        return run[1]

    def rewrite(self, path, mutate):
        data = json.loads(path.read_text())
        mutate(data)
        path.write_text(json.dumps(data))

    def test_save_restore_save_is_byte_identical(self, parked, tmp_path):
        again = tmp_path / "again.json"
        # A resumed replay saves at its first arrival boundary, before
        # deciding anything: that file is the restored state re-saved.
        with pytest.raises(_Stop):
            resume_scenario(
                parked,
                scheduler=StopAtFirstDecision(seed=5),
                checkpoint_path=again,
                checkpoint_every_s=0.0,
            )
        assert again.read_bytes() == parked.read_bytes()

    def test_resume_with_parked_work_matches(self, run):
        full, ckpt = run
        resumed = resume_scenario(ckpt, scheduler=RandomPolicy(seed=5))
        assert_traces_identical(full, resumed)

    def test_version_1_is_refused(self, parked):
        self.rewrite(parked, lambda d: d.update(version=1))
        with pytest.raises(
            CheckpointError,
            match=r"unsupported scenario checkpoint version 1 \(expected 3\)",
        ):
            resume_scenario(parked, scheduler=RandomPolicy(seed=5))

    def test_version_2_is_refused(self, parked):
        # Version 2 engine parts also listed finished deployments.
        self.rewrite(parked, lambda d: d.update(version=2))
        with pytest.raises(
            CheckpointError,
            match=r"unsupported scenario checkpoint version 2 \(expected 3\)",
        ):
            resume_scenario(parked, scheduler=RandomPolicy(seed=5))

    @pytest.mark.parametrize(
        "part, field",
        [
            ("injector", "plan"),
            ("injector", "rng_state"),
            ("policy", "rng_state"),
        ],
    )
    def test_stale_part_names_the_missing_field(self, parked, part, field):
        self.rewrite(parked, lambda d: d[part].pop(field))
        with pytest.raises(
            CheckpointError, match=rf"{part} is missing fields \['{field}'\]"
        ):
            resume_scenario(parked, scheduler=RandomPolicy(seed=5))

    def test_stale_retry_entry_names_the_missing_field(self, parked):
        self.rewrite(
            parked, lambda d: d["engine"]["retry_queue"][0].pop("decided_s")
        )
        with pytest.raises(CheckpointError, match=r"\['decided_s'\]"):
            resume_scenario(parked, scheduler=RandomPolicy(seed=5))

    def test_retry_entry_with_unknown_workload_is_refused(self, parked):
        def rename(data):
            data["engine"]["retry_queue"][0]["profile"] = "no-such-app"

        self.rewrite(parked, rename)
        with pytest.raises(CheckpointError, match="unknown workload 'no-such-app'"):
            resume_scenario(parked, scheduler=RandomPolicy(seed=5))


class IsolatedRuntimePredictor:
    """Predicts each mode's isolated runtime; captures real signatures."""

    def __init__(self):
        self.config = FeatureConfig()
        self.signatures = SignatureLibrary(feature_config=self.config)

    def has_signature(self, profile):
        return profile.name in self.signatures

    def predict_both_modes(self, profile, history, deadline_s=None):
        return {mode: profile.isolated_runtime(mode) for mode in MemoryMode}


class TestAdriasResume:
    def test_resume_with_a_fresh_predictor_keeps_signatures(self, tmp_path):
        """Names captured before the checkpoint are not first encounters
        again when the resuming predictor lacks their signatures."""
        config = ScenarioConfig(
            duration_s=600.0, spawn_interval=(5.0, 20.0), seed=3
        )
        ckpt = tmp_path / "adrias.json"
        full = run_scenario(
            config,
            scheduler=AdriasPolicy(IsolatedRuntimePredictor()),
            checkpoint_path=ckpt,
            checkpoint_every_s=200.0,
        )
        assert load_checkpoint(ckpt)["policy"]["captured"]
        resumed = resume_scenario(
            ckpt, scheduler=AdriasPolicy(IsolatedRuntimePredictor())
        )
        assert_traces_identical(full, resumed)
