"""Span tracer writing append-only JSONL in Chrome trace-event form.

Each emitted line is one complete JSON object in the ``chrome://tracing``
event format (a *complete* event, ``"ph": "X"``, with microsecond ``ts`` /
``dur`` read from :func:`time.perf_counter` — monotonic, so spans never go
backwards across clock adjustments).  The file itself is newline-delimited
JSON rather than one big array so writers can only ever *append* (through
an :class:`~repro.utils.durable.AppendLog`): a crash mid-run leaves every
already-flushed span intact.  :func:`to_chrome` wraps a JSONL file into the
``{"traceEvents": [...]}`` envelope the Chrome / Perfetto viewers load
directly.

Spans nest through a per-thread stack: ``Tracer.span`` is a context manager,
and child spans opened inside a parent are contained within the parent's
``ts``/``dur`` window, which is exactly how the viewers reconstruct the
hierarchy.  ``depth`` is exposed for tests and for instrumentation that
wants to skip deep nesting.

The hot path is engineered for the disabled-and-enabled cases both being
cheap: :data:`NULL_TRACER` reuses one no-op context manager, and an enabled
tracer formats events with plain f-strings (falling back to ``json.dumps``
only when a span carries ``args``), buffering lines and flushing in batches.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.utils.durable import AppendLog

__all__ = ["NULL_TRACER", "NullTracer", "Tracer", "to_chrome"]

#: buffered events before an automatic flush
_FLUSH_EVERY = 512


class _NullSpan:
    """Reusable no-op context manager (one instance serves every call)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op."""

    enabled = False

    def span(self, name: str, cat: str = "repro", **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "repro", **args: Any) -> None:
        pass

    @property
    def depth(self) -> int:
        return 0

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class _SpanContext:
    """Context manager recording one complete ("X") event on exit."""

    __slots__ = ("tracer", "name", "cat", "args", "start", "_stack")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_SpanContext":
        # The stack reference is cached so exit skips the thread-local lookup.
        stack = self.tracer._stack()
        stack.append(self.name)
        self._stack = stack
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.tracer._emit(self.name, self.cat, self.start, end - self.start, self.args)


class Tracer:
    """Append-only JSONL span writer for one process.

    Parameters
    ----------
    directory:
        Trace directory; this process appends to ``trace-<pid>.jsonl`` in it
        (one file per process keeps workers from interleaving writes).
    process_name:
        Human-readable label emitted as the standard ``process_name``
        metadata event, shown by the trace viewers.
    """

    enabled = True

    def __init__(self, directory: str | Path, process_name: str = "repro") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.path = self.directory / f"trace-{self.pid}.jsonl"
        self._log = AppendLog(self.path)
        self._lock = threading.Lock()
        self._buffer: List[str] = []
        self._local = threading.local()
        # Event timestamps are microseconds relative to this epoch: relative
        # stamps keep files diffable and viewers happy with small numbers.
        self._epoch = time.perf_counter()
        self._buffer.append(
            json.dumps(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": self.pid,
                    "tid": 0,
                    "args": {"name": process_name},
                }
            )
        )

    # ------------------------------------------------------------- plumbing
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def depth(self) -> int:
        """Nesting depth of the calling thread's open spans."""
        return len(self._stack())

    def _emit(
        self, name: str, cat: str, start: float, duration: float, args: Dict[str, Any]
    ) -> None:
        ts = (start - self._epoch) * 1e6
        dur = duration * 1e6
        tid = threading.get_ident() & 0x7FFFFFFF
        if args:
            line = json.dumps(
                {"name": name, "cat": cat, "ph": "X", "ts": round(ts, 3),
                 "dur": round(dur, 3), "pid": self.pid, "tid": tid, "args": args}
            )
        else:
            line = (
                f'{{"name":"{name}","cat":"{cat}","ph":"X","ts":{ts:.3f},'
                f'"dur":{dur:.3f},"pid":{self.pid},"tid":{tid}}}'
            )
        with self._lock:
            self._buffer.append(line)
            if len(self._buffer) >= _FLUSH_EVERY:
                self._flush_locked()

    # ------------------------------------------------------------------ API
    def span(self, name: str, cat: str = "repro", **args: Any) -> _SpanContext:
        """Context manager timing one span: ``with tracer.span("tick"): ...``."""
        return _SpanContext(self, name, cat, args)

    def instant(self, name: str, cat: str = "repro", **args: Any) -> None:
        """Record a zero-duration instant event (steering fired, run resumed…)."""
        ts = (time.perf_counter() - self._epoch) * 1e6
        tid = threading.get_ident() & 0x7FFFFFFF
        payload: Dict[str, Any] = {
            "name": name, "cat": cat, "ph": "i", "ts": round(ts, 3),
            "pid": self.pid, "tid": tid, "s": "t",
        }
        if args:
            payload["args"] = args
        line = json.dumps(payload)
        with self._lock:
            self._buffer.append(line)
            if len(self._buffer) >= _FLUSH_EVERY:
                self._flush_locked()

    # ------------------------------------------------------------- flushing
    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        self._log.append(*self._buffer)
        self._buffer.clear()

    def flush(self) -> None:
        """Write every buffered event to disk (append-only)."""
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        self.flush()


def to_chrome(jsonl_path: str | Path, out_path: Optional[str | Path] = None) -> Path:
    """Convert a JSONL trace file into a ``chrome://tracing`` loadable file.

    Reads the intact ``trace-*.jsonl`` lines (a crashed writer's torn line
    is skipped) and writes ``{"traceEvents": [...]}``.  ``out_path``
    defaults to the input with a ``.json`` suffix.
    """
    jsonl_path = Path(jsonl_path)
    events = AppendLog(jsonl_path).read()
    out = Path(out_path) if out_path is not None else jsonl_path.with_suffix(".json")
    out.write_text(json.dumps({"traceEvents": events}))
    return out
