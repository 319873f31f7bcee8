"""Artifact cache: completed runs keyed by their configuration fingerprint.

Two campaign nodes that expand to the same *effective* configuration (base
config ∘ overrides, metadata keys excluded — exactly what
:meth:`repro.api.config.OnlineTrainingConfig.digest` fingerprints) describe the same
deterministic computation, so the second node splices the first node's
record instead of re-executing it.  Entries are one atomic JSON file per
digest under ``<root>/<digest>.json`` — crash-safe by construction (a kill
mid-``put`` leaves only an orphaned temp file, never a torn entry) and
shared freely across processes and invocations.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

from repro.utils.durable import atomic_write
from repro.utils.logging import get_logger
from repro.workflow.results import RunResult

__all__ = ["ArtifactCache"]

_LOGGER = get_logger("campaign")


class ArtifactCache:
    """Directory of completed :class:`RunResult` records keyed by digest."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def __contains__(self, digest: str) -> bool:
        return bool(digest) and self.path(digest).exists()

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json"))) if self.root.exists() else 0

    def digests(self) -> List[str]:
        if not self.root.exists():
            return []
        return sorted(entry.stem for entry in self.root.glob("*.json"))

    def get(self, digest: str) -> Optional[RunResult]:
        """The cached record for ``digest``, or None (corrupt entries heal)."""
        entry = self.path(digest)
        if not digest or not entry.exists():
            return None
        try:
            return RunResult.from_dict(json.loads(entry.read_text()))
        except (json.JSONDecodeError, KeyError, TypeError):
            _LOGGER.warning("dropping unreadable cache entry %s", entry)
            entry.unlink(missing_ok=True)
            return None

    def put(self, record: RunResult) -> None:
        """Store ``record`` under its own digest (first writer wins)."""
        if not record.digest:
            return
        entry = self.path(record.digest)
        if entry.exists():
            return
        atomic_write(entry, json.dumps(record.to_dict(), sort_keys=True))
