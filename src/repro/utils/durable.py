"""The two ways this package writes a file that must survive a kill.

* :class:`AppendLog` — an append-only JSONL file: completed-run checkpoints,
  campaign manifests, service progress events, trace spans.
* :func:`atomic_write` — whole-file replacement: job records, result
  summaries, cache entries, snapshot pointers, weight archives.

Torn-tail rule: a kill mid-append can leave the file ending in half a line.
Readers skip any line that is not valid JSON (one warning per line), and the
next :meth:`AppendLog.append` ends the fragment with a newline before writing,
so the new record is never glued onto it and lost with it.

Durability policy: every append and every atomic write is ``fsync``-ed before
it returns — one policy for every durable file, no option.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, List, Optional, Set

from repro.utils.logging import get_logger

__all__ = ["AppendLog", "atomic_write"]

_LOGGER = get_logger("durable")


def _write_synced(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:  # a regular file takes it in one write; loop on a short one
        view = view[os.write(fd, view):]
    os.fsync(fd)


class AppendLog:
    """Append-only JSONL file of records, each one already-encoded JSON line.

    Indices are dense and 0-based over the *intact* records; the count is
    read from the file once per instance (or refreshed by :meth:`read`), so
    one instance is meant to be the file's only writer.  Not thread-safe:
    callers serialise appends with their own lock.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._count: Optional[int] = None
        #: unreadable line numbers already warned about by this instance
        self._reported: Set[int] = set()

    def __len__(self) -> int:
        """Number of intact records — the index the next append receives."""
        if self._count is None:
            self.read()
        return self._count

    def append(self, *lines: str) -> int:
        """Durably append ``lines`` as records; returns the first one's index.

        The batch goes out as one newline-terminated ``os.write`` on an
        ``O_APPEND`` descriptor followed by ``fsync``.  A file left ending in
        a torn fragment gets the fragment's newline prepended to the write.
        """
        index = len(self)
        data = ("\n".join(lines) + "\n").encode()
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self.path, flags, 0o666)
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, flags, 0o666)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            _write_synced(fd, data)
        finally:
            os.close(fd)
        self._count = index + len(lines)
        return index

    def read(self, since: int = -1) -> List[Any]:
        """Intact records with index ``> since`` (``-1`` → all), in file order."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        records: List[Any] = []
        for number, line in enumerate(data.split(b"\n")):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                if number not in self._reported:
                    self._reported.add(number)
                    _LOGGER.warning("skipping unreadable line %d of %s", number + 1, self.path)
        self._count = len(records)
        return records[max(since + 1, 0):]


def atomic_write(path: str | Path, data: str | bytes) -> Path:
    """Replace ``path`` with ``data`` so readers see the old or the new file.

    The bytes go to ``<name>.tmp-<pid>-<random>`` in the same directory, are
    ``fsync``-ed and then renamed over ``path``; on any failure the temp
    file is removed and the old content stays.  ``str`` is written as UTF-8.
    """
    path = Path(path)
    payload = data.encode() if isinstance(data, str) else data
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{os.urandom(4).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            _write_synced(fd, payload)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
