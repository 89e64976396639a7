"""Interval-sampling profiler: attribution, lifecycle, snapshots."""

import threading

import pytest

from repro.obs.perf.profiler import IntervalProfiler


class TestSampling:
    def test_sample_attributes_innermost_repro_frame(self):
        profiler = IntervalProfiler(target_ident=threading.get_ident())
        # This very call runs inside src/repro/obs/perf/profiler.py, the
        # innermost frame matching the package marker.
        label = profiler.sample_once()
        assert label == "profiler.sample_once"
        assert profiler.total_samples == 1

    def test_snapshot_shares_sum_to_one_for_single_label(self):
        profiler = IntervalProfiler(target_ident=threading.get_ident())
        for _ in range(4):
            profiler.sample_once()
        snap = profiler.snapshot(top=5)
        assert snap["samples"] == 4
        assert snap["top"][0]["fn"] == "profiler.sample_once"
        assert snap["top"][0]["share"] == pytest.approx(1.0)

    def test_unknown_thread_counts_sample_without_label(self):
        profiler = IntervalProfiler(target_ident=-1)  # no such thread
        assert profiler.sample_once() is None
        assert profiler.total_samples == 1
        assert profiler.snapshot()["top"] == []


class TestLifecycle:
    def test_start_stop(self):
        profiler = IntervalProfiler(interval_s=0.001)
        profiler.start()
        assert profiler.running
        profiler.start()  # idempotent
        profiler.stop()
        assert not profiler.running

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            IntervalProfiler(interval_s=0.0)

