"""Property-based guarantees for fit checkpoints (Hypothesis).

Two invariants the resilience layer must hold for *any* input:

* checkpoint → restore → continue is indistinguishable from a
  straight-through fit, for any seed and any split point;
* a corrupted checkpoint never loads silently — any byte flip or
  truncation raises :class:`FitCheckpointError`.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.nn import (  # noqa: E402
    Adam,
    CheckpointManager,
    DataLoader,
    Dropout,
    EarlyStopping,
    FitCheckpointError,
    Linear,
    MSELoss,
    ReLU,
    Sequential,
    TensorDataset,
    Trainer,
)
from repro.nn.resilience import decode_fit_state  # noqa: E402

EPOCHS = 4


def make_parts(seed):
    rng = np.random.default_rng(seed)
    model = Sequential(
        Linear(3, 8, rng=rng), ReLU(), Dropout(0.1, rng=rng), Linear(8, 1, rng=rng)
    )
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-2), MSELoss())
    data_rng = np.random.default_rng(seed + 1)
    x = data_rng.normal(size=(48, 3))
    ds = TensorDataset(x, x @ np.ones((3, 1)))
    loader = DataLoader(ds, batch_size=16, shuffle=True,
                        rng=np.random.default_rng(seed + 2))
    return trainer, loader, EarlyStopping(patience=50)


def final_state(trainer):
    return {k: v.copy() for k, v in trainer.model.state_dict().items()}


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), split=st.integers(1, EPOCHS - 1))
def test_resume_equals_straight_through(tmp_path_factory, seed, split):
    straight, loader, es = make_parts(seed)
    reference = straight.fit(loader, epochs=EPOCHS, early_stopping=es)

    path = tmp_path_factory.mktemp("ckpt") / f"fit-{seed}-{split}.ckpt"
    first, loader1, es1 = make_parts(seed)
    first.fit(loader1, epochs=split, early_stopping=es1,
              checkpoint=CheckpointManager(path))
    second, loader2, es2 = make_parts(seed)
    resumed = second.fit(loader2, epochs=EPOCHS, early_stopping=es2,
                         checkpoint=CheckpointManager(path), resume=True)

    assert resumed.train_loss == reference.train_loss
    ref_state, res_state = final_state(straight), final_state(second)
    assert ref_state.keys() == res_state.keys()
    for key in ref_state:
        assert np.array_equal(ref_state[key], res_state[key])


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("blob") / "fit.ckpt"
    trainer, loader, es = make_parts(1234)
    trainer.fit(loader, epochs=2, early_stopping=es,
                checkpoint=CheckpointManager(path))
    return path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupt_bytes_never_load(checkpoint_blob, data):
    blob = bytearray(checkpoint_blob)
    pos = data.draw(st.integers(0, len(blob) - 1))
    flip = data.draw(st.integers(1, 255))
    blob[pos] ^= flip
    with pytest.raises(FitCheckpointError):
        decode_fit_state(bytes(blob))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_truncated_bytes_never_load(checkpoint_blob, data):
    cut = data.draw(st.integers(0, len(checkpoint_blob) - 1))
    with pytest.raises(FitCheckpointError):
        decode_fit_state(checkpoint_blob[:cut])
