"""Versioned, atomic session snapshots: the ``SessionSnapshot`` format.

A snapshot is a *directory* capturing everything a
:class:`~repro.api.session.TrainingSession` owns at a tick boundary::

    <checkpoint_dir>/
        step-00000042/          # named by the session tick counter
            manifest.json       # schema version, config + fingerprint, counters,
                                # and the state tree with array placeholders
            arrays.npz          # the state tree's arrays (zip CRCs guard every member)
        step-00000063/
        latest.json             # atomic pointer to the newest snapshot

The state tree comes from ``TrainingSession.state_dict()``: nested dicts /
lists of JSON scalars and numpy arrays.  :func:`encode_state` lifts the arrays
out in one walk of the tree and replaces each with a placeholder, so the
manifest itself is plain JSON — floats round-trip exactly (``repr``
shortest-float encoding) and the RNG bit-generator states are
arbitrary-precision integers, which JSON also preserves exactly.  Restores are
therefore *bit-identical*: a run killed at any batch and restored from its
latest snapshot produces the same metrics and series as an uninterrupted run.

Archive layout (schemas 2 to 6).  A state tree holds hundreds of small
arrays (the Breed tracker's per-simulation records) and
a handful of large ones (reservoir rows, weights, Adam moments, pending payloads).
Every array of rank ≤ 1 is packed into one contiguous *pool* per dtype,
stored as the member ``pool-<dtype>``, and its placeholder is
``{"__ndarray__": [pool, offset, shape]}``; restoring copies its elements out
of the pool.  Every array of higher rank is its own member ``aNNNNN`` with the
placeholder ``{"__ndarray__": "aNNNNN"}``, handed to the components as
loaded.  The reservoir adopts its loaded rows as its buffer when it is
full, so a restore holds them once; a save writes them straight from the
live buffer, through the read-only views its state tree exports.
Schema-1 snapshots stored every array as its own member; their
placeholders are all of the second kind, so they load unchanged.  The
manifest is written compact.

Schema versions.  Schema 6 writes the launcher's ledger as one
``"launcher"`` subtree of columns, row ``j`` for simulation ``j`` (parameters,
source and state codes, the four job ticks), its counters, one ``overwrites``
count and the running clients' ``n_produced``; older trees hold a
``"scheduler"`` subtree of job records and a ``"launcher"`` one of simulation
records, which must agree on each job's state; their per-record ``history``
lists restore as their total length, and their clients' ``finished`` flags
(false for every running one) are ignored.
Schema 5 adds the diagnostics of each steering to the
controller's steering records (``concentrate_probability`` to
``n_fallbacks``); records of older trees restore with ``None`` for them.
Schema 4 keeps each fact of the state tree once, with its owner, and
nothing derivable from it.  Schema-3 trees also carry, and the
loaders ignore: Breed's tracker records of simulations never observed, and
each tracker record's ``parameters`` (the launcher record's) and
``n_observations`` (the sum of its counts); the sampler's
``last_trigger_iteration``; each client's ``simulation_id``, ``parameters``
(the launcher record's) and ``next_timestep`` (its ``n_produced``); and the
launcher's ``highest_submitted_id`` (``next_to_submit − 1``),
``factory_created`` (the start order the scheduler jobs' ticks give) and
each record's ``n_updates`` (its history's length).  Schema-2 trees carry
all of that and more copies, also ignored: the server's
``n_samples_received`` (the reservoir's count) and
``uniform_flag_ids``/``uniform_flag_values`` (the launcher records'
sources), the Breed sampler's ``decisions`` (what the launcher and the
steering records keep), the session's ``pending_parameters`` (the pending
rows' launcher parameters) and the transport's ``steering`` and ``jobs``
channels and queue counters, which never counted anything.  Schema 1 has the
tree of schema 2, with every array its own archive member.

Write protocol (crash safety):

1. the snapshot is assembled in a ``.tmp-…`` sibling directory; its archive,
   its manifest and the directory itself are ``fsync``-ed,
2. ``os.rename`` moves it to its final ``step-…`` name (atomic on POSIX), and
   the checkpoint directory is ``fsync``-ed so the rename is durable,
3. ``latest.json`` is replaced atomically (:func:`~repro.utils.durable.atomic_write`),
4. snapshots beyond the retention budget — and stale tmp directories left by
   crashed writers — are pruned last.

A crash (or power loss) between any two steps leaves either the previous
consistent snapshot set, or the previous set plus one complete new snapshot.
The fault point ``snapshot:step-XXXXXXXX`` of :mod:`repro.workflow.faults`
fires between steps 1 and 2.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
import zipfile
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

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
SCHEMA_VERSION = 6
#: schema 5 keeps the launcher's ledger as records, schema 4 also lacks the steering
#: diagnostics, schemas 3 and 2 add copies the loaders ignore, schema 1 has its own
#: archive layout
_READABLE_SCHEMAS = (1, 2, 3, 4, 5, 6)

_MANIFEST_NAME = "manifest.json"
_ARRAYS_NAME = "arrays.npz"
_LATEST_NAME = "latest.json"
_STEP_PREFIX = "step-"
_TMP_PREFIX = ".tmp-"
_ARRAY_SENTINEL = "__ndarray__"
_POOL_PREFIX = "pool-"


class SnapshotError(RuntimeError):
    """A snapshot is missing, incomplete, or structurally invalid."""


class SnapshotMismatchError(SnapshotError):
    """A snapshot belongs to a different run configuration."""


# ---------------------------------------------------------------------------
# State-tree <-> (JSON, arrays) encoding
# ---------------------------------------------------------------------------


def encode_state(state: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Split a state tree into a JSON-compatible tree plus an array mapping.

    Arrays of rank ≤ 1 are packed into one ``pool-<dtype>`` entry per dtype;
    each array of higher rank is an entry of its own.
    """
    arrays: Dict[str, np.ndarray] = {}
    pools: Dict[str, List[np.ndarray]] = {}
    encoded = _encode(state, "$", arrays, pools, {})
    for name, parts in pools.items():
        arrays[name] = np.concatenate(parts)
    return encoded, arrays


def _encode(
    value: Any,
    path: str,
    arrays: Dict[str, np.ndarray],
    pools: Dict[str, List[np.ndarray]],
    pool_sizes: Dict[str, int],
) -> Any:
    # A module-level function, not a recursive closure: a closure that calls
    # itself is a reference cycle, which would keep ``arrays`` (a copy of the
    # reservoir, 125 MiB at the paper preset) alive until the cycle collector
    # happened to run.
    if isinstance(value, np.ndarray):
        if value.ndim > 1:
            key = f"a{len(arrays):05d}"
            arrays[key] = value
            return {_ARRAY_SENTINEL: key}
        name = _POOL_PREFIX + value.dtype.name
        offset = pool_sizes.get(name, 0)
        pools.setdefault(name, []).append(value.ravel())
        pool_sizes[name] = offset + value.size
        return {_ARRAY_SENTINEL: [name, offset, list(value.shape)]}
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
            encoded[key] = _encode(item, f"{path}.{key}", arrays, pools, pool_sizes)
        return encoded
    if isinstance(value, (list, tuple)):
        return [
            _encode(item, f"{path}[{index}]", arrays, pools, pool_sizes)
            for index, item in enumerate(value)
        ]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot snapshot value of type {type(value).__name__} at {path!r}")


def decode_state(encoded: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`encode_state` (array placeholders resolved).

    A pooled array is copied out of its pool, so no restored component pins
    the pool; an array with an entry of its own is returned as it is.
    """
    if isinstance(encoded, dict):
        if set(encoded) == {_ARRAY_SENTINEL}:
            ref = encoded[_ARRAY_SENTINEL]
            if isinstance(ref, str):  # an entry of its own (every array of schema 1)
                return arrays[ref]
            name, offset, shape = ref
            return arrays[name][offset : offset + math.prod(shape)].reshape(shape).copy()
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
    if schema not in _READABLE_SCHEMAS:
        raise SnapshotError(
            f"snapshot {snapshot} has schema version {schema}, "
            f"this code reads versions {', '.join(map(str, _READABLE_SCHEMAS))}"
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
    the same state — unless its archive cannot be read).  ``keep`` bounds
    the number of retained snapshots.
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
        # is ours and readable.  A leftover from a *different* configuration
        # (stale directory reuse) must be replaced, or the latest pointer would
        # advertise our fingerprint over a foreign snapshot and every future
        # restore would fail the mismatch check; one whose archive cannot be
        # read (a resume skipped it) must be replaced, or it stays unrestorable.
        try:
            existing = load_manifest(final)
            _load_arrays(final)
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
        _write_synced(tmp / _ARRAYS_NAME, lambda stream: saver(stream, **arrays))
        # no indent: only then does json use its C encoder (5x faster here)
        text = json.dumps(manifest, separators=(",", ":"))
        _write_synced(tmp / _MANIFEST_NAME, lambda stream: stream.write(text.encode()))
        _sync_directory(tmp)
        _fault_point(name)
        os.rename(tmp, final)
    finally:
        if tmp.exists():  # failed save: leave no half-written directory behind
            shutil.rmtree(tmp, ignore_errors=True)
    _sync_directory(directory)
    _write_latest(directory, manifest, name)
    if keep is not None:
        _prune(directory, keep)
    return final


def _write_synced(path: Path, write: Callable[[BinaryIO], object]) -> None:
    with open(path, "wb") as stream:
        write(stream)
        stream.flush()
        os.fsync(stream.fileno())


def _sync_directory(path: Path) -> None:
    """``fsync`` a directory, making the entries created or renamed in it durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fault_point(name: str) -> None:
    """The kill tests' ``snapshot:<name>`` fault (:mod:`repro.workflow.faults`)."""
    # the workflow package takes ~30 ms to import: only when a fault is armed
    if "REPRO_FAULT_TOKEN" in os.environ:
        from repro.workflow.faults import maybe_inject

        maybe_inject("snapshot", name)


def restore_session(
    snapshot: str | Path,
    config: Optional[OnlineTrainingConfig] = None,
    solver=None,
    validation_set=None,
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
    solver / validation_set:
        Optional pre-built run inputs, exactly as for ``TrainingSession``.
    """
    start = time.perf_counter()
    with telemetry.tracer().span("checkpoint.restore", cat="checkpoint"):
        session = _restore_session(snapshot, config, solver, validation_set)
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
    state = decode_state(manifest["state"], _load_arrays(snapshot))
    session = TrainingSession(config, solver=solver, validation_set=validation_set)
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
    directory: Optional[str | Path] = None,
) -> "TrainingSession":
    """Restore the newest snapshot that loads, or start a fresh session.

    ``directory`` defaults to ``config.checkpoint_dir``.  The retained
    snapshots are tried newest first (the ``latest.json`` target before the
    rest); one that cannot be restored — written by a *different*
    configuration (stale directory reuse), or with an unreadable manifest or
    archive — is skipped with a warning.  When none loads the run starts
    from scratch, which is always correct — just slower.
    """
    from repro.api.session import TrainingSession

    directory = directory if directory is not None else config.checkpoint_dir
    for snapshot in _newest_first(Path(directory)) if directory else []:
        try:
            session = restore_session(
                snapshot, config=config, solver=solver, validation_set=validation_set
            )
        except SnapshotMismatchError:
            _LOGGER.warning(
                "snapshot %s belongs to a different configuration; skipping it", snapshot
            )
        except SnapshotError as error:
            _LOGGER.warning("cannot restore snapshot %s (%s); skipping it", snapshot, error)
        else:
            _LOGGER.info(
                "resuming session from %s (tick %d, iteration %d)",
                snapshot,
                session.n_ticks,
                session.server.iteration,
            )
            return session
    return TrainingSession(config, solver=solver, validation_set=validation_set)


def _newest_first(directory: Path) -> list[Path]:
    """The retained snapshots in restore order: the latest pointer's, then newest to oldest."""
    latest = latest_snapshot(directory)
    older = [snapshot for snapshot in reversed(list_snapshots(directory)) if snapshot != latest]
    return ([latest] if latest is not None else []) + older


def _load_arrays(snapshot: Path) -> Dict[str, np.ndarray]:
    """Every array of a snapshot's archive; ``SnapshotError`` when it is missing or unreadable."""
    arrays_path = snapshot / _ARRAYS_NAME
    if not arrays_path.exists():
        raise SnapshotError(f"snapshot {snapshot} has no {_ARRAYS_NAME}")
    try:
        with np.load(arrays_path) as archive:  # every member read is a fresh array
            return {key: archive[key] for key in archive.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as error:
        raise SnapshotError(f"snapshot archive {arrays_path} is unreadable: {error}") from error
