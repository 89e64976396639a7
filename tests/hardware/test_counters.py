import numpy as np
import pytest

from repro.hardware import METRIC_NAMES, CounterSynthesizer, PerfCounters


class TestPerfCounters:
    def test_array_roundtrip(self):
        values = np.arange(7.0)
        counters = PerfCounters.from_array(values)
        assert np.allclose(counters.as_array(), values)

    def test_field_order_matches_metric_names(self):
        counters = PerfCounters.from_array(np.arange(7.0))
        for index, name in enumerate(METRIC_NAMES):
            assert getattr(counters, name) == index

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            PerfCounters.from_array(np.zeros(5))

    def test_zeros(self):
        assert np.allclose(PerfCounters.zeros().as_array(), 0.0)


#: Column of each event in a counter row.
COLUMN = {name: index for index, name in enumerate(METRIC_NAMES)}


class TestSynthesizer:
    @pytest.fixture
    def synth(self):
        return CounterSynthesizer(noise=0.0)

    def test_sample_is_a_counter_row(self):
        for noise in (0.0, 0.1):
            row = CounterSynthesizer(noise=noise).synthesize(5, 0, 10, 1, 400)
            assert isinstance(row, np.ndarray)
            assert row.dtype == np.float64 and row.shape == (len(METRIC_NAMES),)

    def test_no_remote_traffic_means_no_flits(self, synth):
        counters = PerfCounters.from_array(synth.synthesize(
            llc_access_gbps=5.0, miss_inflation=0.0,
            local_bw_gbps=10.0, remote_delivered_gbps=0.0,
            link_latency_cycles=350.0,
        ))
        assert counters.rmt_tx_flits == 0.0
        assert counters.rmt_rx_flits == 0.0
        assert counters.llc_loads > 0

    def test_miss_rate_rises_with_inflation(self, synth):
        calm = synth.synthesize(5.0, 0.0, 10.0, 0.0, 350.0)
        contended = synth.synthesize(5.0, 1.0, 10.0, 0.0, 350.0)
        misses, loads = COLUMN["llc_misses"], COLUMN["llc_loads"]
        assert contended[misses] > calm[misses]
        assert contended[loads] == pytest.approx(calm[loads])

    def test_miss_rate_capped_below_one(self, synth):
        row = synth.synthesize(5.0, 100.0, 10.0, 0.0, 350.0)
        counters = PerfCounters.from_array(row)
        assert counters.llc_misses < counters.llc_loads

    def test_remote_traffic_reflected_in_local_counters(self, synth):
        """Remark R3: remote traffic is handled by local controllers."""
        without = synth.synthesize(5.0, 0.0, 10.0, 0.0, 350.0)
        with_remote = synth.synthesize(5.0, 0.0, 10.0, 2.5, 350.0)
        assert with_remote[COLUMN["mem_loads"]] > without[COLUMN["mem_loads"]]
        assert with_remote[COLUMN["mem_stores"]] > without[COLUMN["mem_stores"]]

    def test_flit_accounting(self, synth):
        counters = PerfCounters.from_array(synth.synthesize(0.0, 0.0, 0.0, 2.5, 900.0))
        total_flits = counters.rmt_tx_flits + counters.rmt_rx_flits
        assert total_flits == pytest.approx(2.5e9 / 8 / 32)

    def test_latency_passthrough(self, synth):
        row = synth.synthesize(1.0, 0.0, 1.0, 1.0, 777.0)
        assert row[COLUMN["link_latency"]] == pytest.approx(777.0)

    def test_noise_perturbs_but_stays_nonnegative(self):
        noisy = CounterSynthesizer(noise=0.2, seed=1)
        clean = CounterSynthesizer(noise=0.0)
        a = noisy.synthesize(5.0, 0.1, 10.0, 1.0, 400.0)
        b = clean.synthesize(5.0, 0.1, 10.0, 1.0, 400.0)
        assert not np.allclose(a, b)
        assert np.all(a >= 0)

    def test_noise_reproducible_by_seed(self):
        a = CounterSynthesizer(noise=0.1, seed=3).synthesize(5, 0, 10, 1, 400)
        b = CounterSynthesizer(noise=0.1, seed=3).synthesize(5, 0, 10, 1, 400)
        assert np.allclose(a, b)

    def test_negative_traffic_raises(self, synth):
        with pytest.raises(ValueError):
            synth.synthesize(-1.0, 0.0, 0.0, 0.0, 350.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CounterSynthesizer(flit_bytes=0)
        with pytest.raises(ValueError):
            CounterSynthesizer(noise=1.0)
