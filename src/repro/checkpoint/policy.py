"""Periodic snapshot policy riding the session's ``on_tick`` hook.

The :class:`CheckpointPolicy` is an observer — it never changes what the
training loop computes, it only persists the loop's state at tick boundaries.
``every_n_batches`` counts *training iterations* (the paper's unit of
progress); a snapshot is written at the first tick boundary after each
period elapses, at most once per tick.  Before the reservoir watermark no
batch runs, so nothing is saved while data is only being produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, TYPE_CHECKING

from repro.checkpoint.snapshot import save_session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import TrainingSession

__all__ = ["CheckpointPolicy"]


@dataclass
class CheckpointPolicy:
    """Save a session snapshot every N training batches."""

    directory: str | Path
    #: snapshot period in training iterations
    every_n_batches: int
    #: retention: number of most-recent snapshots kept in ``directory``
    keep: int = 3
    #: write compressed ``.npz`` archives (slower saves, smaller snapshots)
    compressed: bool = False
    #: snapshots written by this policy instance
    n_saved: int = field(default=0, init=False)
    #: path of the most recent snapshot written by this policy
    last_path: Optional[Path] = field(default=None, init=False)
    _batch_marker: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.every_n_batches < 1:
            raise ValueError("every_n_batches must be >= 1")
        if self.keep < 1:
            raise ValueError("keep must be >= 1")

    # ------------------------------------------------------------ lifecycle
    def attach(self, session: "TrainingSession") -> "CheckpointPolicy":
        """Subscribe to ``session.on_tick``; returns the policy for chaining.

        The period marker starts from the session's *current* iteration, so a
        freshly restored session does not immediately re-save the snapshot it
        was just restored from.
        """
        self._batch_marker = session.server.iteration // self.every_n_batches
        session.on_tick.append(self.on_tick)
        return self

    def should_save(self, session: "TrainingSession") -> bool:
        """Whether the session just crossed a snapshot period."""
        return session.server.iteration // self.every_n_batches > self._batch_marker

    def on_tick(self, session: "TrainingSession") -> None:
        """Tick hook: save when a period elapsed since the last snapshot."""
        if self.should_save(session):
            self.save(session)

    def save(self, session: "TrainingSession") -> Path:
        """Write one snapshot now and advance the period marker."""
        path = save_session(
            session, self.directory, keep=self.keep, compressed=self.compressed
        )
        self._batch_marker = session.server.iteration // self.every_n_batches
        self.n_saved += 1
        self.last_path = path
        return path
