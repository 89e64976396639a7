import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    Linear,
    ModelFormatError,
    ReLU,
    Sequential,
    StackedLSTM,
    load_state,
    save_state,
)
from repro.nn.serialization import MODEL_FORMAT_VERSION, state_digest


def make_model(seed):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(4, 8, rng=rng), ReLU(), BatchNorm1d(8), Linear(8, 2, rng=rng)
    )


class TestSaveLoad:
    def test_roundtrip_preserves_outputs(self, tmp_path):
        path = tmp_path / "model.npz"
        rng = np.random.default_rng(0)
        m1, m2 = make_model(1), make_model(2)
        # Populate batch-norm running stats so buffers are non-trivial.
        x = rng.normal(size=(32, 4))
        m1.forward(x)
        save_state(m1.state_dict(), path)
        m2.load_state_dict(load_state(path))
        m1.eval()
        m2.eval()
        assert np.allclose(m1.forward(x), m2.forward(x))

    def test_lstm_roundtrip(self, tmp_path):
        path = tmp_path / "lstm.npz"
        rng = np.random.default_rng(3)
        m1 = StackedLSTM(3, 8, num_layers=2, rng=np.random.default_rng(4))
        m2 = StackedLSTM(3, 8, num_layers=2, rng=np.random.default_rng(5))
        save_state(m1.state_dict(), path)
        m2.load_state_dict(load_state(path))
        x = rng.normal(size=(2, 6, 3))
        assert np.allclose(m1.forward(x), m2.forward(x))

    def test_architecture_mismatch_raises(self, tmp_path):
        path = tmp_path / "model.npz"
        save_state(make_model(0).state_dict(), path)
        wrong = Sequential(Linear(4, 4))
        with pytest.raises((KeyError, ValueError)):
            wrong.load_state_dict(load_state(path))

    def test_empty_model_raises(self, tmp_path):
        with pytest.raises(ValueError):
            save_state(ReLU().state_dict(), tmp_path / "empty.npz")


def write_archive(path, arrays):
    """An ``.npz`` with exactly ``arrays`` — a hand-made, unverified file."""
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


class TestArchiveChecks:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.npz"
        state = make_model(7).state_dict()
        save_state(state, path)
        return path, state

    def test_loads_exactly_what_was_saved(self, saved):
        path, state = saved
        loaded = load_state(path)
        assert loaded.keys() == state.keys()
        assert state_digest(loaded) == state_digest(state)

    def test_bare_path_gets_npz_suffix(self, tmp_path):
        save_state({"w": np.ones(3)}, tmp_path / "bare")
        assert (tmp_path / "bare.npz").exists()
        assert np.array_equal(load_state(tmp_path / "bare")["w"], np.ones(3))

    @pytest.mark.parametrize("keep", [0.0, 0.5, 0.9])
    def test_truncated_archive_raises(self, saved, keep):
        path, _ = saved
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * keep)])
        with pytest.raises(ModelFormatError):
            load_state(path)

    def test_flipped_payload_byte_raises(self, saved):
        path, state = saved
        # Flip one bit of the stored weight array, not of the zip framing.
        raw = np.ascontiguousarray(state["0.weight"]).tobytes()
        blob = bytearray(path.read_bytes())
        blob[blob.index(raw)] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError):
            load_state(path)

    def test_digest_mismatch_raises(self, saved):
        path, state = saved
        changed = dict(state)
        changed["0.weight"] = state["0.weight"] + 1.0
        write_archive(path, {
            **changed,
            "__repro_format__": np.array([MODEL_FORMAT_VERSION]),
            "__repro_digest__": np.array(state_digest(state)),
        })
        with pytest.raises(ModelFormatError, match="integrity"):
            load_state(path)

    def test_newer_format_version_raises(self, saved):
        path, state = saved
        write_archive(path, {
            **state,
            "__repro_format__": np.array([MODEL_FORMAT_VERSION + 1]),
            "__repro_digest__": np.array(state_digest(state)),
        })
        with pytest.raises(ModelFormatError, match="format version"):
            load_state(path)

    @pytest.mark.parametrize(
        "dropped",
        [("__repro_format__",), ("__repro_digest__",),
         ("__repro_format__", "__repro_digest__")],
        ids=["no-version", "no-digest", "no-header"],
    )
    def test_archive_without_header_raises(self, saved, dropped):
        path, state = saved
        header = {
            "__repro_format__": np.array([MODEL_FORMAT_VERSION]),
            "__repro_digest__": np.array(state_digest(state)),
        }
        for key in dropped:
            del header[key]
        write_archive(path, {**state, **header})
        with pytest.raises(ModelFormatError, match="header"):
            load_state(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state(tmp_path / "absent.npz")

    def test_empty_state_refused(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_state({}, tmp_path / "empty.npz")
        assert not (tmp_path / "empty.npz").exists()

    @pytest.mark.parametrize("reserved", ["__repro_format__", "__repro_digest__"])
    def test_reserved_key_refused(self, tmp_path, reserved):
        with pytest.raises(ValueError, match="reserved"):
            save_state({"w": np.ones(2), reserved: np.ones(1)}, tmp_path / "r.npz")
        assert not (tmp_path / "r.npz").exists()
