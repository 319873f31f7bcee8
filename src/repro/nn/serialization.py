"""Saving and loading model weights.

Checkpoints are stored as ``.npz`` archives (one array per state-dict entry)
plus a small JSON sidecar describing architecture hyper-parameters, which is
sufficient to resume or analyse a surrogate after an experiment.

Writes are *atomic* (:func:`~repro.utils.durable.atomic_write`), so a crash
mid-write can never leave a torn ``.npz`` or sidecar behind — at worst an
orphaned ``<name>.tmp-…`` file.  ``compressed=True`` trades save latency for
disk space through :func:`numpy.savez_compressed`.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.utils.durable import atomic_write

__all__ = ["save_checkpoint", "load_checkpoint", "save_state_dict", "load_state_dict"]

_META_SUFFIX = ".meta.json"


def save_state_dict(
    path: str | Path, state: Dict[str, np.ndarray], compressed: bool = False
) -> Path:
    """Write a state dict as an ``.npz`` archive atomically and return the path.

    Readers never observe a partially written file.  ``compressed=True``
    uses :func:`numpy.savez_compressed` (zip-deflate).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    archive = io.BytesIO()
    (np.savez_compressed if compressed else np.savez)(archive, **state)
    return atomic_write(path, archive.getvalue())


def load_state_dict(path: str | Path) -> Dict[str, np.ndarray]:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    with np.load(path) as archive:
        return {key: archive[key].copy() for key in archive.files}


def save_checkpoint(
    path: str | Path,
    model: Module,
    metadata: Optional[Dict[str, Any]] = None,
    compressed: bool = False,
) -> Path:
    """Save model weights plus a JSON metadata sidecar."""
    path = save_state_dict(path, model.state_dict(), compressed=compressed)
    meta = dict(metadata or {})
    meta.setdefault("num_parameters", model.num_parameters())
    meta_path = path.with_suffix(path.suffix + _META_SUFFIX)
    atomic_write(meta_path, json.dumps(meta, indent=2, sort_keys=True))
    return path


def load_checkpoint(
    path: str | Path,
    model: Module,
    require_metadata: bool = True,
) -> Tuple[Module, Dict[str, Any]]:
    """Load weights into ``model`` in-place; returns (model, metadata).

    A checkpoint written by :func:`save_checkpoint` always has a
    ``<name>.npz.meta.json`` sidecar; a missing one means the caller points at
    a bare weight archive (or a partially copied checkpoint), so by default a
    :class:`FileNotFoundError` naming the expected sidecar is raised instead
    of silently continuing (pass ``require_metadata=False`` to accept bare
    archives and get empty metadata).  A corrupt sidecar raises a
    :class:`ValueError` naming the file rather than a bare ``JSONDecodeError``.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    if not path.exists():
        raise FileNotFoundError(f"checkpoint archive {path} does not exist")
    state = load_state_dict(path)
    model.load_state_dict(state)
    meta_path = path.with_suffix(path.suffix + _META_SUFFIX)
    metadata: Dict[str, Any] = {}
    if not meta_path.exists():
        if require_metadata:
            raise FileNotFoundError(
                f"checkpoint metadata sidecar {meta_path} is missing; the weights "
                f"in {path.name} were loaded from an archive not written by "
                "save_checkpoint (pass require_metadata=False to accept bare "
                "weight archives)"
            )
        return model, metadata
    try:
        metadata = json.loads(meta_path.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(
            f"checkpoint metadata sidecar {meta_path} is not valid JSON "
            f"(corrupt or truncated): {error}"
        ) from error
    return model, metadata
