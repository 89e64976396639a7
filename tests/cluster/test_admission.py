"""CapacityError admission paths of the engine, incl. the outage queue."""

import pytest

from repro.cluster.engine import (
    CapacityError,
    ClusterEngine,
    RemoteUnavailableError,
)
from repro.hardware import NodeConfig, Testbed, TestbedConfig
from repro.workloads import MemoryMode, spark_profile


def tiny_engine(dram_gb=9.0, remote_gb=9.0):
    return ClusterEngine(
        testbed=Testbed(
            TestbedConfig(node=NodeConfig(dram_gb=dram_gb, remote_gb=remote_gb))
        )
    )


class TestCapacityAdmission:
    def test_overcommit_local_raises(self):
        engine = tiny_engine()
        engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)  # 8 GB
        with pytest.raises(CapacityError, match="does not fit"):
            engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)

    def test_pools_are_independent(self):
        engine = tiny_engine()
        engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        engine.deploy(spark_profile("scan"), MemoryMode.REMOTE)  # other pool

    def test_capacity_frees_on_completion(self):
        engine = tiny_engine()
        engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)
        engine.run_until_idle()
        engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)

    def test_fits_is_consistent_with_deploy(self):
        engine = tiny_engine()
        profile = spark_profile("scan")
        assert engine.fits(profile, MemoryMode.LOCAL)
        engine.deploy(profile, MemoryMode.LOCAL)
        assert not engine.fits(profile, MemoryMode.LOCAL)


class TestOutageAdmission:
    def test_remote_blocked_raises_remote_unavailable(self):
        engine = tiny_engine()
        engine.remote_blocked = True
        with pytest.raises(RemoteUnavailableError, match="unavailable"):
            engine.deploy(spark_profile("scan"), MemoryMode.REMOTE)
        # Local placements are unaffected by a link outage.
        engine.deploy(spark_profile("scan"), MemoryMode.LOCAL)

    def test_remote_unavailable_is_a_capacity_error(self):
        # Callers catching CapacityError keep working under outages.
        assert issubclass(RemoteUnavailableError, CapacityError)

    def test_queue_drains_after_outage_clears(self):
        engine = tiny_engine()
        engine.remote_blocked = True
        engine.queue_remote(spark_profile("scan"))
        assert engine.queued_remote == 1
        engine.run_for(5.0)
        assert engine.queued_remote == 1  # still blocked, backing off
        engine.remote_blocked = False
        engine.run_for(70.0)  # beyond the backoff cap
        assert engine.queued_remote == 0
        # Placed once: still in flight, or finished into the trace.
        placed = [*engine.running, *engine.trace.records]
        assert [d.mode for d in placed] == [MemoryMode.REMOTE]

    def test_queue_entry_dropped_after_retry_limit(self):
        engine = tiny_engine()
        engine.remote_blocked = True
        engine.queue_remote(spark_profile("scan"))
        # Never unblock: backoff 1,2,4,...,64 caps out and the entry is
        # dropped after 8 failed attempts (~191 simulated seconds).
        engine.run_for(300.0)
        assert engine.queued_remote == 0
        # Never placed: nothing in flight, nothing finished into the trace.
        assert not [*engine.running, *engine.trace.records]
        assert engine.dropped_retries == 1

    def test_requeued_deployment_joins_its_audit_row(self):
        # The decision is logged when the placement is chosen; the
        # deployment starts later (after the outage) — the outcome must
        # still join through the recorded decision time.
        from repro import obs

        engine = tiny_engine()
        engine.remote_blocked = True
        profile = spark_profile("scan")
        obs.enable()
        try:
            obs.audit().record(
                engine=engine,
                policy="test",
                app_name=profile.name,
                kind=profile.kind.value,
                chosen_mode="remote",
            )
            engine.queue_remote(profile)
            engine.remote_blocked = False
            engine.run_until_idle()
            (record,) = obs.audit().records
            assert record.outcome is not None
            assert record.outcome["mode"] == "remote"
        finally:
            obs.disable()

    def test_run_until_idle_waits_for_queue(self):
        engine = tiny_engine()
        engine.remote_blocked = True
        engine.queue_remote(spark_profile("scan"), duration_s=5.0)
        engine.remote_blocked = False
        engine.run_until_idle()
        assert engine.queued_remote == 0
        assert engine.trace.records, "queued deployment must finish"
