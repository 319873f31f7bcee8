"""Fault-tolerant session checkpointing with bit-identical mid-run resume.

The paper's Melissa framework targets long-running, elastic studies where
component failures are expected; this subsystem gives the reproduction the
matching within-run durability.  A :class:`~repro.api.session.TrainingSession`
can snapshot *everything it owns* — model weights, Adam moments, reservoir
content and seen-counts, breed/sampler statistics, the launcher's simulation
ledger, mid-trajectory client progress, RNG stream states, transport
counters — into a versioned on-disk :mod:`snapshot <repro.checkpoint.snapshot>`
and later resume **bit-identically**: a run killed at any batch and restored
from its latest snapshot produces exactly the metrics and series of an
uninterrupted run.

Typical use::

    from repro.checkpoint import CheckpointPolicy, resume_or_start

    config = OnlineTrainingConfig(checkpoint_dir="ckpt/run0", checkpoint_every=100)
    session = resume_or_start(config)   # picks up ckpt/run0 if it exists
    result = session.run()              # snapshots every 100 batches

or, through the study engine / CLI::

    runner.run_all(configs, checkpoint="study.jsonl", checkpoint_every=100)
    python -m repro.cli fig3a --checkpoint-every 100          # … SIGKILL …
    python -m repro.cli fig3a --checkpoint-every 100 --restore
"""

from repro.checkpoint.policy import CheckpointPolicy
from repro.checkpoint.snapshot import (
    SCHEMA_VERSION,
    SnapshotError,
    SnapshotMismatchError,
    decode_state,
    encode_state,
    latest_snapshot,
    list_snapshots,
    load_manifest,
    restore_session,
    resume_or_start,
    save_session,
)

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointPolicy",
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
