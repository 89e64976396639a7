import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Trace
from repro.cluster.trace import CHUNK_ROWS
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
        assert len(trace) == 3
        assert trace.metrics.shape == (3, len(METRIC_NAMES))
        assert np.array_equal(trace.metric("llc_loads"), [0.0, 1.0, 2.0])
        assert len(trace.concurrency) == 3

    def test_row_stored_as_float64(self):
        trace = Trace()
        row = np.arange(len(METRIC_NAMES), dtype=np.float64)
        trace.append(1.0, row, 0)
        trace.append(2.0, list(range(len(METRIC_NAMES))), 0)
        expected = np.vstack([row, row])
        row[:] = -1.0  # copied, not kept: the caller's later write is not seen
        assert trace.metrics.dtype == np.float64
        assert np.array_equal(trace.metrics, expected)


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


def random_trace(n_rows, dt, seed):
    """A trace of ``n_rows`` random rows with NaN cells and whole NaN
    rows, and beside it the plain list of the rows appended to it."""
    rng = np.random.default_rng(seed)
    trace, appended = Trace(dt=dt), []
    for i in range(n_rows):
        values = rng.normal(size=len(METRIC_NAMES))
        values[rng.random(len(METRIC_NAMES)) < 0.05] = np.nan
        if rng.random() < 0.02:
            values[:] = np.nan  # a dropped sample
        trace.append((i + 1) * dt, values, i % 4)
        appended.append(values)
    return trace, appended


def stacked(appended):
    return np.array(appended).reshape(len(appended), len(METRIC_NAMES))


def window_reference(appended, dt, end_time, length_s):
    """Reference ``window``: the appended rows of
    ``[end_time - length_s, end_time)``, newest last, zero-padded in
    front to the window's length."""
    steps = int(round(length_s / dt))
    end_idx = int(round(end_time / dt))
    rows = stacked(appended)[max(0, end_idx - steps) : max(0, end_idx)]
    pad = np.zeros((steps - rows.shape[0], len(METRIC_NAMES)))
    return np.vstack([pad, rows])


def horizon_mean_reference(appended, dt, start_time, length_s):
    """Reference ``horizon_mean``: the mean of the appended rows of
    ``[start_time, start_time + length_s)``."""
    start_idx = int(round(start_time / dt))
    steps = int(round(length_s / dt))
    rows = stacked(appended)[max(0, start_idx) : max(0, start_idx + steps)]
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
    """Reads slice the chunk store; each must equal the same slice of
    the full matrix stacked from a plain list of the appended rows, bit
    for bit."""

    @given(
        n_rows=st.integers(0, 3 * CHUNK_ROWS + 8),
        dt=st.sampled_from([0.5, 1.0]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_matrix_slice(self, n_rows, dt, seed, data):
        trace, appended = random_trace(n_rows, dt, seed)
        span = (n_rows + 1) * dt
        edges = [k * CHUNK_ROWS * dt for k in range(n_rows // CHUNK_ROWS + 2)]
        # End times before the first row, inside and past the trace, and
        # windows ending near a chunk edge, so that many reads cross one.
        end_time = data.draw(
            st.floats(-0.5 * span - 5.0, 1.5 * span + 5.0)
            | st.sampled_from(edges).flatmap(
                lambda edge: st.floats(edge - 150.0 * dt, edge + 150.0 * dt)
            )
        )
        length_s = data.draw(
            st.floats(0.1, 1.2 * span + 5.0) | st.floats(0.1, 300.0 * dt)
        )
        start_time = end_time - length_s
        assert_same_outcome(
            lambda: trace.window(end_time, length_s),
            lambda: window_reference(appended, dt, end_time, length_s),
        )
        assert_same_outcome(
            lambda: trace.horizon_mean(start_time, length_s),
            lambda: horizon_mean_reference(appended, dt, start_time, length_s),
        )
        assert np.array_equal(trace.metrics, stacked(appended), equal_nan=True)


class TestReturnedArraysAreNotTheStore:
    """Writing into what a read returned must leave the trace unchanged:
    each read returns a copy."""

    READS = {
        "window inside a chunk": lambda t: t.window(500.0, 120.0),
        "window across a chunk edge": lambda t: t.window(CHUNK_ROWS + 60.0, 120.0),
        "zero-padded window": lambda t: t.window(60.0, 120.0),
        "window past the last row": lambda t: t.window(len(t) + 60.0, 120.0),
        "horizon_mean": lambda t: t.horizon_mean(CHUNK_ROWS - 10.0, 20.0),
        "metrics": lambda t: t.metrics,
        "metric": lambda t: t.metric("mem_loads"),
    }

    @pytest.mark.parametrize("n_rows", [CHUNK_ROWS - 1, 2 * CHUNK_ROWS + 5])
    @pytest.mark.parametrize("read", READS.values(), ids=READS.keys())
    def test_write_into_a_read_leaves_the_trace(self, n_rows, read):
        trace, appended = random_trace(n_rows, 1.0, seed=n_rows)
        read(trace)[...] = 7.0
        assert np.array_equal(trace.metrics, stacked(appended), equal_nan=True)

    def test_newest_row_writes_into_the_trace(self):
        trace, appended = random_trace(CHUNK_ROWS + 1, 1.0, seed=3)
        trace.newest_row()[2] = np.nan
        appended[-1][2] = np.nan
        assert np.array_equal(trace.metrics, stacked(appended), equal_nan=True)
        with pytest.raises(IndexError):
            Trace().newest_row()


class TestExtend:
    def test_extend_equals_appends(self):
        trace, appended = random_trace(CHUNK_ROWS + 3, 1.0, seed=5)
        again = Trace()
        again.extend(trace.times, trace.metrics, trace.concurrency)
        assert again.times == trace.times
        assert again.concurrency == trace.concurrency
        assert np.array_equal(again.metrics, stacked(appended), equal_nan=True)

    def test_lengths_must_line_up(self):
        with pytest.raises(ValueError, match="do not line up"):
            Trace().extend([1.0, 2.0], np.zeros((1, len(METRIC_NAMES))), [0, 0])

    def test_rows_checked_as_append_checks_them(self):
        with pytest.raises(ValueError, match="metric values"):
            Trace().extend([1.0], [[0.0, 1.0]], [0])
        with pytest.raises(ValueError, match="strictly increasing"):
            Trace().extend([2.0, 1.0], np.zeros((2, len(METRIC_NAMES))), [0, 0])


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
