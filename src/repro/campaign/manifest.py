"""Campaign manifest: an append-only JSONL ledger of campaign progress.

The manifest is to a campaign what the run checkpoint is to a study: an
:class:`~repro.utils.durable.AppendLog` where each event is one fsync-ed
JSON line, a crash loses at most the in-flight line, and the torn tail a
``SIGKILL`` mid-write leaves behind is skipped.  Events carry the writing
pid, so ``repro doctor`` can tell an abandoned campaign (node marked
running, pid gone) from a live one, and a ``seq`` number — the event's dense
0-based index in the file, continuing across invocations.

Event vocabulary (``event`` key):

``campaign_started``
    opens an invocation: spec digest, node schedule, resume flag.
``node_started`` / ``node_finished`` / ``node_failed`` / ``node_skipped``
    node lifecycle; ``node_failed`` carries the attempt number and error,
    ``node_skipped`` the upstream failures blocking it.
``node_resumed``
    a completed node was spliced from its persisted results on resume.
``run_finished``
    one run of a node completed, with its config digest and whether it was
    satisfied from the artifact cache (``cached: true``) or executed.
``campaign_finished``
    closes an invocation with the final node-state map.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.utils.durable import AppendLog

__all__ = ["CampaignManifest"]

#: events that end a node's current attempt
_NODE_TERMINAL = frozenset({"node_finished", "node_failed", "node_skipped", "node_resumed"})


class CampaignManifest:
    """Append-only JSONL event log of one campaign root."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._log = AppendLog(self.path)

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, event: str, **payload: Any) -> None:
        record = {
            "seq": len(self._log),
            "event": event,
            "pid": os.getpid(),
            "ts": time.time(),
            **payload,
        }
        self._log.append(json.dumps(record, sort_keys=True))

    def load(self) -> List[Dict[str, Any]]:
        """Every intact event, in file order (empty when absent)."""
        return self._log.read()

    # ------------------------------------------------------------- queries
    def spec_digest(self) -> Optional[str]:
        """Digest recorded by the most recent ``campaign_started`` event."""
        digest = None
        for event in self.load():
            if event.get("event") == "campaign_started":
                digest = event.get("digest")
        return digest

    def completed_nodes(self) -> Set[str]:
        """Nodes that finished successfully in *any* previous invocation."""
        done: Set[str] = set()
        for event in self.load():
            if event.get("event") in ("node_finished", "node_resumed"):
                done.add(event["node"])
        return done

    def executed_run_counts(self) -> Dict[str, int]:
        """``digest -> times actually executed`` (cache splices excluded).

        This is the manifest-side proof of the execute-exactly-once cache
        contract: a run shared by two nodes must count 1 here across every
        invocation of the campaign.
        """
        counts: Dict[str, int] = {}
        for event in self.load():
            if event.get("event") == "run_finished" and not event.get("cached", False):
                digest = event.get("digest", "")
                counts[digest] = counts.get(digest, 0) + 1
        return counts

    def last_invocation(self) -> List[Dict[str, Any]]:
        """Events of the most recent invocation (from its ``campaign_started``)."""
        events = self.load()
        start = 0
        for index, event in enumerate(events):
            if event.get("event") == "campaign_started":
                start = index
        return events[start:]

    def running_nodes(self) -> Dict[str, int]:
        """``node -> pid`` of attempts opened but never closed.

        Computed over the latest invocation only: a ``node_started`` with no
        matching terminal event means the writing process was interrupted
        (or is still working — the caller decides by probing the pid).
        """
        open_attempts: Dict[str, int] = {}
        for event in self.last_invocation():
            name = event.get("event")
            if name == "node_started":
                open_attempts[event["node"]] = int(event.get("pid", 0))
            elif name in _NODE_TERMINAL:
                open_attempts.pop(event.get("node"), None)
        return open_attempts

    def finished(self) -> bool:
        """Whether the latest invocation ran to ``campaign_finished``."""
        return any(
            event.get("event") == "campaign_finished" for event in self.last_invocation()
        )
