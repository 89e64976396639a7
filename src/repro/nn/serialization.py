"""Model persistence via numpy ``.npz`` archives.

Archives are written *atomically* (temp file + ``os.replace``) and carry
a format-version header plus a content digest, so a crash mid-save can
never leave a truncated file behind and a corrupted, headerless or
newer-format file fails loudly with :class:`ModelFormatError` instead of
loading garbage.

:func:`save_state`/:func:`load_state` operate on raw state dicts and are
shared by the model wrappers (:class:`~repro.models.performance
.PerformancePredictor`, :class:`~repro.models.system_state
.SystemStatePredictor`) for their scaler-augmented archives.
"""

from __future__ import annotations

import hashlib
import io
import os
import zipfile

import numpy as np

from repro.obs.fsio import atomic_write_bytes

__all__ = [
    "ModelFormatError",
    "MODEL_FORMAT_VERSION",
    "save_state",
    "load_state",
    "state_digest",
]

#: Bumped whenever the archive layout changes incompatibly.
MODEL_FORMAT_VERSION = 2

_VERSION_KEY = "__repro_format__"
_DIGEST_KEY = "__repro_digest__"


class ModelFormatError(RuntimeError):
    """A model archive is truncated, corrupt, or from an unknown format."""


def state_digest(state: dict[str, np.ndarray]) -> str:
    """Order-independent blake2b digest of a state dict's contents."""
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        h.update(key.encode("utf-8"))
        h.update(str(arr.dtype).encode("ascii"))
        h.update(str(arr.shape).encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()


def _npz_path(path: str | os.PathLike) -> str:
    # np.savez appends ``.npz`` to bare paths; keep that contract now
    # that the archive is staged through a buffer instead.
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


def save_state(state: dict[str, np.ndarray], path: str | os.PathLike) -> None:
    """Atomically write ``state`` as a versioned, digested ``.npz``."""
    if not state:
        raise ValueError("refusing to save an empty state dict")
    for reserved in (_VERSION_KEY, _DIGEST_KEY):
        if reserved in state:
            raise ValueError(f"state key {reserved!r} is reserved")
    buffer = io.BytesIO()
    np.savez(
        buffer,
        **state,
        **{
            _VERSION_KEY: np.array([MODEL_FORMAT_VERSION], dtype=np.int64),
            _DIGEST_KEY: np.array(state_digest(state)),
        },
    )
    atomic_write_bytes(_npz_path(path), buffer.getvalue())


def load_state(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Load and verify a state dict written by :func:`save_state`.

    Raises :class:`ModelFormatError` on truncated or corrupt archives,
    on archives without the version/digest header and on unknown format
    versions.
    """
    path = _npz_path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            state = {key: archive[key] for key in archive.files}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, ValueError, EOFError, OSError, KeyError) as error:
        raise ModelFormatError(
            f"model archive {path!r} is truncated or corrupt: {error}"
        ) from error
    version = state.pop(_VERSION_KEY, None)
    digest = state.pop(_DIGEST_KEY, None)
    if version is None or digest is None:
        raise ModelFormatError(
            f"model archive {path!r} has no {_VERSION_KEY}/{_DIGEST_KEY} header"
        )
    found = int(np.asarray(version).ravel()[0])
    if found > MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"model archive {path!r} has format version {found}; "
            f"this build reads up to {MODEL_FORMAT_VERSION}"
        )
    if str(np.asarray(digest).item()) != state_digest(state):
        raise ModelFormatError(
            f"model archive {path!r} failed its integrity check "
            "(content digest mismatch)"
        )
    return state
