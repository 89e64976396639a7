import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Trace
from repro.cluster.deployment import DeploymentRecord
from repro.hardware import METRIC_NAMES
from repro.workloads import MemoryMode, WorkloadKind


def make_trace(n_ticks=10, dt=1.0):
    trace = Trace(dt=dt)
    for i in range(n_ticks):
        row = np.full(len(METRIC_NAMES), float(i))
        trace.append((i + 1) * dt, row, n_running=i % 3)
    return trace


def make_record(name="scan", kind=WorkloadKind.BEST_EFFORT,
                mode=MemoryMode.LOCAL, traffic=0.0, p99=float("nan")):
    return DeploymentRecord(
        app_id=0, name=name, kind=kind, mode=mode,
        arrival_time=0.0, finish_time=10.0, runtime_s=10.0,
        p99_ms=p99, p999_ms=p99, mean_slowdown=1.0, link_traffic_gb=traffic,
    )


class TestAppend:
    def test_timestamps_must_increase(self):
        trace = make_trace(3)
        with pytest.raises(ValueError):
            trace.append(2.0, np.zeros(len(METRIC_NAMES)), 0)

    def test_length(self):
        assert len(make_trace(7)) == 7

    @pytest.mark.parametrize("shape", [(), (1,), (len(METRIC_NAMES) + 1,),
                                       (1, len(METRIC_NAMES))])
    def test_row_shape_checked(self, shape):
        trace = make_trace(3)
        with pytest.raises(ValueError, match="metric values"):
            trace.append(4.0, np.zeros(shape), 0)
        # Nothing of the refused tick is kept.
        assert len(trace) == 3 and len(trace._counter_rows) == 3
        assert len(trace.concurrency) == 3

    def test_row_stored_as_float64(self):
        trace = Trace()
        row = np.arange(len(METRIC_NAMES), dtype=np.float64)
        trace.append(1.0, row, 0)
        trace.append(2.0, list(range(len(METRIC_NAMES))), 0)
        assert trace._counter_rows[0] is row  # kept, not copied
        assert trace._counter_rows[1].dtype == np.float64
        assert np.array_equal(trace.metrics, np.vstack([row, row]))


class TestMetricAccess:
    def test_metrics_matrix_shape(self):
        trace = make_trace(5)
        assert trace.metrics.shape == (5, len(METRIC_NAMES))

    def test_metric_by_name(self):
        trace = make_trace(5)
        assert np.allclose(trace.metric("llc_loads"), np.arange(5.0))

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            make_trace(2).metric("bogus")

    def test_empty_trace_metrics(self):
        trace = Trace()
        assert trace.metrics.shape == (0, len(METRIC_NAMES))


class TestWindows:
    def test_window_exact(self):
        trace = make_trace(10)
        window = trace.window(end_time=10.0, length_s=4.0)
        assert window.shape == (4, len(METRIC_NAMES))
        assert np.allclose(window[:, 0], [6, 7, 8, 9])

    def test_window_zero_pads_before_start(self):
        trace = make_trace(3)
        window = trace.window(end_time=3.0, length_s=5.0)
        assert window.shape == (5, len(METRIC_NAMES))
        assert np.allclose(window[:2, 0], 0.0)
        assert np.allclose(window[2:, 0], [0, 1, 2])

    def test_window_invalid_length(self):
        with pytest.raises(ValueError):
            make_trace(3).window(3.0, 0.0)

    def test_horizon_mean(self):
        trace = make_trace(10)
        mean = trace.horizon_mean(start_time=2.0, length_s=4.0)
        assert mean[0] == pytest.approx(np.mean([2, 3, 4, 5]))

    def test_horizon_outside_trace_raises(self):
        with pytest.raises(ValueError):
            make_trace(3).horizon_mean(start_time=10.0, length_s=5.0)


def window_from_full_matrix(trace, end_time, length_s):
    """Reference ``window``: slice the stacked whole-trace matrix."""
    steps = int(round(length_s / trace.dt))
    end_idx = int(round(end_time / trace.dt))
    start_idx = end_idx - steps
    data = trace.metrics
    end_idx = min(end_idx, len(trace.times))
    rows = data[max(0, start_idx) : end_idx]
    if start_idx < 0 or rows.shape[0] < steps:
        pad = np.zeros((steps - rows.shape[0], data.shape[1]))
        rows = np.vstack([pad, rows]) if rows.size else pad
    return rows


def horizon_mean_from_full_matrix(trace, start_time, length_s):
    """Reference ``horizon_mean``: slice the stacked whole-trace matrix."""
    start_idx = int(round(start_time / trace.dt))
    steps = int(round(length_s / trace.dt))
    rows = trace.metrics[start_idx : start_idx + steps]
    if rows.shape[0] == 0:
        raise ValueError("horizon window lies outside the trace")
    return rows.mean(axis=0)


def assert_same_outcome(read, reference):
    """Both reads return bit-identical arrays, or both raise ValueError."""
    try:
        want = reference()
    except ValueError:
        with pytest.raises(ValueError):
            read()
        return
    got = read()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


class TestReadsTouchOnlyTheirRows:
    """``window`` and ``horizon_mean`` stack only the rows they return,
    and must equal a slice of the whole-trace matrix bit for bit."""

    @given(
        n_rows=st.integers(0, 300),
        dt=st.sampled_from([0.5, 1.0]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_matrix_slice(self, n_rows, dt, seed, data):
        rng = np.random.default_rng(seed)
        trace = Trace(dt=dt)
        for i in range(n_rows):
            values = rng.normal(size=len(METRIC_NAMES))
            values[rng.random(len(METRIC_NAMES)) < 0.05] = np.nan
            trace.append((i + 1) * dt, values, 0)
        span = (n_rows + 1) * dt
        # End times before the first row, inside and past the trace.
        end_time = data.draw(st.floats(-0.5 * span - 5.0, 1.5 * span + 5.0))
        length_s = data.draw(st.floats(0.1, 1.2 * span + 5.0))
        start_time = end_time - length_s
        assert_same_outcome(
            lambda: trace.window(end_time, length_s),
            lambda: window_from_full_matrix(trace, end_time, length_s),
        )
        assert_same_outcome(
            lambda: trace.horizon_mean(start_time, length_s),
            lambda: horizon_mean_from_full_matrix(trace, start_time, length_s),
        )


class TestRecordQueries:
    def test_records_of_kind_and_name(self):
        trace = make_trace(2)
        trace.add_record(make_record("scan"))
        trace.add_record(make_record("redis", kind=WorkloadKind.LATENCY_CRITICAL))
        assert len(trace.records_of_kind(WorkloadKind.BEST_EFFORT)) == 1
        assert trace.records_for("redis")[0].name == "redis"

    def test_offload_fraction_excludes_interference(self):
        trace = make_trace(2)
        trace.add_record(make_record("scan", mode=MemoryMode.REMOTE))
        trace.add_record(make_record("scan", mode=MemoryMode.LOCAL))
        trace.add_record(
            make_record("ibench-cpu", kind=WorkloadKind.INTERFERENCE,
                        mode=MemoryMode.REMOTE)
        )
        assert trace.offload_fraction() == pytest.approx(0.5)

    def test_offload_fraction_empty(self):
        assert make_trace(1).offload_fraction() == 0.0

    def test_total_link_traffic(self):
        trace = make_trace(1)
        trace.add_record(make_record(traffic=2.0))
        trace.add_record(make_record(traffic=3.0))
        assert trace.total_link_traffic_gb() == pytest.approx(5.0)
