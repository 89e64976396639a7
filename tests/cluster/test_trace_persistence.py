"""Trace save/load round trips."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import ScenarioConfig, Trace, run_scenario


@pytest.fixture(scope="module")
def trace():
    return run_scenario(
        ScenarioConfig(duration_s=300.0, spawn_interval=(10, 25), seed=9)
    )


class TestTracePersistence:
    def test_roundtrip_metrics_and_records(self, trace, tmp_path):
        # Single-engine replays leave decided_s unset; fleet and daemon
        # records carry it, and the first daemon decision is at 0.0.
        decided = dataclasses.replace(trace.records[0], decided_s=0.0)
        trace = dataclasses.replace(trace, records=[*trace.records, decided])
        path = tmp_path / "trace.npz"
        trace.save(path)
        restored = Trace.load(path)

        assert restored.dt == trace.dt
        assert restored.times == trace.times
        assert np.allclose(restored.metrics, trace.metrics)
        assert restored.concurrency == trace.concurrency
        assert len(restored.records) == len(trace.records)
        for a, b in zip(trace.records, restored.records):
            for field in a.__dataclass_fields__:
                va, vb = getattr(a, field), getattr(b, field)
                if isinstance(va, float) and np.isnan(va):
                    assert np.isnan(vb)  # BE records carry NaN p99s
                else:
                    assert va == vb, field

    def test_restored_trace_supports_windows(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        trace.save(path)
        restored = Trace.load(path)
        assert np.allclose(
            restored.window(120.0, 60.0), trace.window(120.0, 60.0)
        )
        assert np.allclose(
            restored.horizon_mean(60.0, 60.0), trace.horizon_mean(60.0, 60.0)
        )

    def test_restored_trace_feeds_datasets(self, trace, tmp_path):
        from repro.models import build_system_state_dataset

        path = tmp_path / "trace.npz"
        trace.save(path)
        restored = Trace.load(path)
        original_ds = build_system_state_dataset([trace], stride_s=30.0)
        restored_ds = build_system_state_dataset([restored], stride_s=30.0)
        assert np.allclose(original_ds.windows, restored_ds.windows)
        assert np.allclose(original_ds.targets, restored_ds.targets)
