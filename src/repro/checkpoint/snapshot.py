"""Versioned, atomic session snapshots: the ``SessionSnapshot`` format.

A snapshot is a *directory* capturing everything a
:class:`~repro.api.session.TrainingSession` owns at a tick boundary::

    <checkpoint_dir>/
        step-00000042/          # named by the session tick counter
            manifest.json       # schema version, config + fingerprint, counters,
                                # and the state tree with array placeholders
            arrays.npz          # every numpy array of the state tree
        step-00000063/
        latest.json             # atomic pointer to the newest snapshot

The state tree comes from ``TrainingSession.state_dict()``: nested dicts /
lists of JSON scalars and numpy arrays.  :func:`encode_state` lifts the arrays
out into a flat ``{key: array}`` mapping (stored as one ``.npz``) and replaces
them with ``{"__ndarray__": key}`` placeholders, so the manifest itself is
plain JSON — floats round-trip exactly (``repr`` shortest-float encoding) and
the RNG bit-generator states are arbitrary-precision integers, which JSON
also preserves exactly.  Restores are therefore *bit-identical*: a run killed
at any batch and restored from its latest snapshot produces the same metrics
and series as an uninterrupted run.

Write protocol (crash safety):

1. the snapshot is assembled in a ``.tmp-…`` sibling directory,
2. ``os.rename`` moves it to its final ``step-…`` name (atomic on POSIX),
3. ``latest.json`` is replaced atomically (:func:`~repro.utils.durable.atomic_write`),
4. snapshots beyond the retention budget — and stale tmp directories left by
   crashed writers — are pruned last.

A crash between any two steps leaves either the previous consistent snapshot
set, or the previous set plus one complete new snapshot.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro import __version__, telemetry
from repro.api.config import OnlineTrainingConfig
from repro.utils.durable import atomic_write
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import TrainingSession

__all__ = [
    "SCHEMA_VERSION",
    "SnapshotError",
    "SnapshotMismatchError",
    "decode_state",
    "encode_state",
    "latest_snapshot",
    "list_snapshots",
    "load_manifest",
    "restore_session",
    "resume_or_start",
    "save_session",
]

_LOGGER = get_logger("checkpoint")

#: bump when the manifest layout or any component state_dict changes shape
SCHEMA_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_ARRAYS_NAME = "arrays.npz"
_LATEST_NAME = "latest.json"
_STEP_PREFIX = "step-"
_TMP_PREFIX = ".tmp-"
_ARRAY_SENTINEL = "__ndarray__"


class SnapshotError(RuntimeError):
    """A snapshot is missing, incomplete, or structurally invalid."""


class SnapshotMismatchError(SnapshotError):
    """A snapshot belongs to a different run configuration."""


# ---------------------------------------------------------------------------
# State-tree <-> (JSON, arrays) encoding
# ---------------------------------------------------------------------------


def encode_state(state: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Split a state tree into a JSON-compatible tree plus an array mapping."""
    arrays: Dict[str, np.ndarray] = {}

    def visit(value: Any, path: str) -> Any:
        if isinstance(value, np.ndarray):
            key = f"a{len(arrays):05d}"
            arrays[key] = value
            return {_ARRAY_SENTINEL: key}
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, dict):
            encoded = {}
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(
                        f"state key {key!r} at {path!r} is {type(key).__name__}; "
                        "state_dict keys must be strings"
                    )
                if key == _ARRAY_SENTINEL:
                    raise TypeError(f"reserved key {_ARRAY_SENTINEL!r} used at {path!r}")
                encoded[key] = visit(item, f"{path}.{key}")
            return encoded
        if isinstance(value, (list, tuple)):
            return [visit(item, f"{path}[{index}]") for index, item in enumerate(value)]
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        raise TypeError(
            f"cannot snapshot value of type {type(value).__name__} at {path!r}"
        )

    return visit(state, "$"), arrays


def decode_state(encoded: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`encode_state` (array placeholders resolved)."""
    if isinstance(encoded, dict):
        if set(encoded) == {_ARRAY_SENTINEL}:
            return arrays[encoded[_ARRAY_SENTINEL]]
        return {key: decode_state(item, arrays) for key, item in encoded.items()}
    if isinstance(encoded, list):
        return [decode_state(item, arrays) for item in encoded]
    return encoded


# ---------------------------------------------------------------------------
# Directory-level helpers
# ---------------------------------------------------------------------------


def list_snapshots(directory: str | Path) -> list[Path]:
    """Complete snapshot directories under ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        entry
        for entry in directory.iterdir()
        if entry.is_dir()
        and entry.name.startswith(_STEP_PREFIX)
        and (entry / _MANIFEST_NAME).exists()
    )


def latest_snapshot(directory: str | Path) -> Optional[Path]:
    """The newest complete snapshot under ``directory`` (None when empty).

    The ``latest.json`` pointer is consulted first; if it is missing or stale
    (e.g. the pointed-at snapshot was pruned by hand) the directory scan is
    the fallback, so a snapshot set always remains restorable.
    """
    directory = Path(directory)
    pointer = directory / _LATEST_NAME
    if pointer.exists():
        try:
            name = json.loads(pointer.read_text())["snapshot"]
            candidate = directory / str(name)
            if (candidate / _MANIFEST_NAME).exists():
                return candidate
        except (json.JSONDecodeError, KeyError, TypeError):
            _LOGGER.warning("ignoring corrupt latest pointer %s", pointer)
    snapshots = list_snapshots(directory)
    return snapshots[-1] if snapshots else None


def load_manifest(snapshot: str | Path) -> Dict[str, Any]:
    """Read and validate a snapshot's manifest."""
    snapshot = Path(snapshot)
    manifest_path = snapshot / _MANIFEST_NAME
    if not manifest_path.exists():
        raise SnapshotError(f"snapshot {snapshot} has no {_MANIFEST_NAME}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise SnapshotError(f"snapshot manifest {manifest_path} is corrupt: {error}") from error
    schema = manifest.get("schema")
    if schema != SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot {snapshot} has schema version {schema}, "
            f"this code reads version {SCHEMA_VERSION}"
        )
    return manifest


def _write_latest(directory: Path, manifest: Dict[str, Any], name: str) -> None:
    pointer = {
        "snapshot": name,
        "n_ticks": manifest["n_ticks"],
        "iteration": manifest["iteration"],
        "fingerprint": manifest["fingerprint"],
    }
    atomic_write(directory / _LATEST_NAME, json.dumps(pointer, indent=2))


def _prune(directory: Path, keep: int) -> None:
    snapshots = list_snapshots(directory)
    for stale in snapshots[:-keep] if keep > 0 else []:
        shutil.rmtree(stale, ignore_errors=True)
    for entry in directory.iterdir():
        # tmp leftovers of crashed writers: snapshot dirs and latest pointers
        # (their names carry the dead writer's pid, so nobody else owns them)
        if entry.is_dir() and entry.name.startswith(_TMP_PREFIX):
            shutil.rmtree(entry, ignore_errors=True)
        elif entry.is_file() and entry.name.startswith(f"{_LATEST_NAME}.tmp-"):
            entry.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Save / restore
# ---------------------------------------------------------------------------


def save_session(
    session: "TrainingSession",
    directory: str | Path,
    keep: Optional[int] = None,
    compressed: bool = False,
) -> Path:
    """Snapshot ``session`` into ``directory`` atomically; returns the path.

    The snapshot is named after the session's tick counter; saving twice at
    the same tick is idempotent (the existing snapshot wins — it describes
    the same state).  ``keep`` bounds the number of retained snapshots.
    """
    start = time.perf_counter()
    with telemetry.tracer().span("checkpoint.save", cat="checkpoint", tick=session.n_ticks):
        final = _save_session(session, directory, keep, compressed)
    registry = telemetry.metrics()
    registry.counter("repro_checkpoint_saves_total", help="session snapshots written").inc()
    registry.histogram(
        "repro_checkpoint_save_seconds", help="snapshot save latency"
    ).observe(time.perf_counter() - start)
    return final


def _save_session(
    session: "TrainingSession",
    directory: str | Path,
    keep: Optional[int],
    compressed: bool,
) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = f"{_STEP_PREFIX}{session.n_ticks:08d}"
    final = directory / name
    encoded, arrays = encode_state(session.state_dict())
    manifest = {
        "schema": SCHEMA_VERSION,
        "repro_version": __version__,
        "config": session.config.to_dict(),
        "fingerprint": session.config.digest(),
        "workload": session.workload_name,
        "method": session.sampler.name,
        "n_ticks": session.n_ticks,
        "iteration": session.server.iteration,
        "n_arrays": len(arrays),
        "state": encoded,
    }
    if final.exists():
        # Same-tick resave: idempotent only when the existing snapshot really
        # is ours.  A leftover from a *different* configuration (stale
        # directory reuse) must be replaced, or the latest pointer would
        # advertise our fingerprint over a foreign snapshot and every future
        # restore would fail the mismatch check.
        try:
            existing = load_manifest(final)
        except SnapshotError:
            existing = None
        if existing is not None and existing.get("fingerprint") == manifest["fingerprint"]:
            _write_latest(directory, manifest, name)
            if keep is not None:
                _prune(directory, keep)
            return final
        shutil.rmtree(final)
    tmp = directory / f"{_TMP_PREFIX}{name}-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        saver = np.savez_compressed if compressed else np.savez
        with open(tmp / _ARRAYS_NAME, "wb") as stream:
            saver(stream, **arrays)
        (tmp / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
        os.rename(tmp, final)
    finally:
        if tmp.exists():  # failed save: leave no half-written directory behind
            shutil.rmtree(tmp, ignore_errors=True)
    _write_latest(directory, manifest, name)
    if keep is not None:
        _prune(directory, keep)
    return final


def restore_session(
    snapshot: str | Path,
    config: Optional[OnlineTrainingConfig] = None,
    solver=None,
    validation_set=None,
    event_log=None,
) -> "TrainingSession":
    """Rebuild a :class:`TrainingSession` bit-identical to a saved snapshot.

    Parameters
    ----------
    snapshot:
        A snapshot directory (``…/step-XXXXXXXX``).
    config:
        Optional configuration the caller *expects* the snapshot to belong
        to; a fingerprint mismatch raises :class:`SnapshotMismatchError`.
        When omitted, the configuration embedded in the manifest is used.
    solver / validation_set / event_log:
        Optional pre-built run inputs, exactly as for ``TrainingSession``.
    """
    start = time.perf_counter()
    with telemetry.tracer().span("checkpoint.restore", cat="checkpoint"):
        session = _restore_session(snapshot, config, solver, validation_set, event_log)
    registry = telemetry.metrics()
    registry.counter("repro_checkpoint_restores_total", help="session snapshots restored").inc()
    registry.histogram(
        "repro_checkpoint_restore_seconds", help="snapshot restore latency"
    ).observe(time.perf_counter() - start)
    return session


def _restore_session(
    snapshot: str | Path,
    config: Optional[OnlineTrainingConfig],
    solver,
    validation_set,
    event_log,
) -> "TrainingSession":
    from repro.api.session import TrainingSession

    snapshot = Path(snapshot)
    manifest = load_manifest(snapshot)
    if config is not None and config.digest() != manifest["fingerprint"]:
        raise SnapshotMismatchError(
            f"snapshot {snapshot} was written by configuration "
            f"{manifest['fingerprint']}, caller expects {config.digest()}"
        )
    if config is None:
        config = OnlineTrainingConfig.from_dict(manifest["config"])
    arrays_path = snapshot / _ARRAYS_NAME
    if not arrays_path.exists():
        raise SnapshotError(f"snapshot {snapshot} has no {_ARRAYS_NAME}")
    with np.load(arrays_path) as archive:
        arrays = {key: archive[key].copy() for key in archive.files}
    state = decode_state(manifest["state"], arrays)
    session = TrainingSession(
        config, solver=solver, validation_set=validation_set, event_log=event_log
    )
    try:
        session.load_state_dict(state)
    except BaseException:
        session.close()  # its solver workers, if any, must not outlive the failure
        raise
    return session


def resume_or_start(
    config: OnlineTrainingConfig,
    solver=None,
    validation_set=None,
    event_log=None,
    directory: Optional[str | Path] = None,
) -> "TrainingSession":
    """Restore the latest matching snapshot, or start a fresh session.

    ``directory`` defaults to ``config.checkpoint_dir``.  A snapshot written
    by a *different* configuration (stale directory reuse) is not restored:
    a warning is logged and the run starts from scratch, which is always
    correct — just slower.
    """
    from repro.api.session import TrainingSession

    directory = directory if directory is not None else config.checkpoint_dir
    if directory:
        snapshot = latest_snapshot(directory)
        if snapshot is not None:
            try:
                session = restore_session(
                    snapshot,
                    config=config,
                    solver=solver,
                    validation_set=validation_set,
                    event_log=event_log,
                )
            except SnapshotMismatchError:
                _LOGGER.warning(
                    "snapshot %s belongs to a different configuration; starting fresh",
                    snapshot,
                )
            except SnapshotError as error:
                _LOGGER.warning("cannot restore snapshot %s (%s); starting fresh", snapshot, error)
            else:
                _LOGGER.info(
                    "resuming session from %s (tick %d, iteration %d)",
                    snapshot,
                    session.n_ticks,
                    session.server.iteration,
                )
                return session
    return TrainingSession(
        config, solver=solver, validation_set=validation_set, event_log=event_log
    )
