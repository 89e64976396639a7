import numpy as np
import pytest

from repro.nn import DataLoader, StandardScaler, TensorDataset


class TestTensorDataset:
    def test_length_and_indexing(self):
        ds = TensorDataset(np.arange(10), np.arange(10) * 2)
        assert len(ds) == 10
        x, y = ds[3]
        assert x == 3 and y == 6

    def test_multi_array_alignment_enforced(self):
        with pytest.raises(ValueError):
            TensorDataset(np.zeros(3), np.zeros(4))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            TensorDataset()


class TestDataLoader:
    def test_batch_shapes(self):
        ds = TensorDataset(np.arange(10), np.arange(10))
        batches = list(DataLoader(ds, batch_size=4))
        assert [b[0].shape[0] for b in batches] == [4, 4, 2]

    def test_shuffle_covers_all_and_reorders(self):
        ds = TensorDataset(np.arange(100))
        loader = DataLoader(ds, batch_size=100, shuffle=True,
                            rng=np.random.default_rng(0))
        (batch,) = list(loader)[0:1]
        values = batch[0]
        assert sorted(values) == list(range(100))
        assert not np.allclose(values, np.arange(100))

    def test_epochs_draw_different_permutations(self):
        ds = TensorDataset(np.arange(50))
        loader = DataLoader(ds, batch_size=50, shuffle=True,
                            rng=np.random.default_rng(1))
        first = next(iter(loader))[0].copy()
        second = next(iter(loader))[0].copy()
        assert not np.allclose(first, second)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(TensorDataset(np.zeros(2)), batch_size=0)


class TestStandardScaler:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        x = rng.normal(loc=4, scale=3, size=(100, 5))
        scaled = StandardScaler().fit_transform(x)
        assert np.allclose(scaled.mean(axis=0), 0, atol=1e-10)
        assert np.allclose(scaled.std(axis=0), 1, atol=1e-10)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 3))
        scaler = StandardScaler().fit(x)
        assert np.allclose(scaler.inverse_transform(scaler.transform(x)), x)

    def test_3d_input_scales_trailing_axis(self):
        rng = np.random.default_rng(2)
        x = rng.normal(loc=10, size=(8, 6, 4))
        scaled = StandardScaler().fit_transform(x)
        assert np.allclose(scaled.reshape(-1, 4).mean(axis=0), 0, atol=1e-10)

    def test_constant_feature_safe(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        scaled = StandardScaler().fit_transform(x)
        assert np.all(np.isfinite(scaled))
        assert np.allclose(scaled[:, 0], 0.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))
