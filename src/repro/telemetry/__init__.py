"""``repro.telemetry`` — unified metrics + tracing across the whole stack.

One process-wide telemetry state feeds every layer: :class:`TrainingSession`
phases, solver stepping, reservoir ingest/draw, transport volume, executor
workers, checkpoint latency and the study service all instrument themselves
against :func:`metrics` and :func:`tracer`.  Both default to no-op null
objects — instrumentation stays inline in hot loops at negligible cost until
telemetry is switched on (see ``docs/OBSERVABILITY.md`` for the metric name
inventory, trace format and the measured ≤2 % overhead policy).

Switching on::

    from repro import telemetry
    telemetry.configure(metrics=True, trace_dir="results/trace")

or, equivalently, through the environment (read at import, which is how the
state propagates into executor worker processes)::

    REPRO_METRICS=1 REPRO_TRACE_DIR=results/trace python -m repro.cli …

or through the CLI flags ``--metrics`` / ``--trace DIR``.

The hard guarantee instrumented code must honour: telemetry observes, it
never participates.  Enabled or disabled, every run's outputs are
bit-identical — no RNG draws, no numeric feedback, nothing checkpointed.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import Optional, Union

from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_delta,
)
from repro.telemetry.tracing import NULL_TRACER, NullTracer, Tracer, to_chrome

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "configure",
    "counter_delta",
    "disable",
    "metrics",
    "metrics_enabled",
    "to_chrome",
    "tracer",
    "tracing_enabled",
]

#: environment switches (read at import so forked/spawned workers inherit)
METRICS_ENV = "REPRO_METRICS"
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

_NULL_REGISTRY: Optional[MetricsRegistry] = None  # sentinel: metrics off

_metrics: Optional[MetricsRegistry] = None
_tracer: Union[Tracer, NullTracer] = NULL_TRACER


def metrics() -> MetricsRegistry:
    """The process-wide registry (a fresh throwaway one while disabled).

    Instrumented components call this once at construction.  While metrics
    are disabled, each call returns a *new* empty registry whose families
    hand out real (but unobserved) series — cheap enough for construction
    paths; hot paths should cache the family and pay one float addition.
    """
    if _metrics is not None:
        return _metrics
    return MetricsRegistry()


def metrics_enabled() -> bool:
    """Whether a process-wide registry is collecting."""
    return _metrics is not None


def tracer() -> Union[Tracer, NullTracer]:
    """The process-wide tracer (the shared no-op instance while disabled)."""
    return _tracer


def tracing_enabled() -> bool:
    return _tracer.enabled


def configure(
    metrics: Optional[bool] = None,
    trace_dir: Optional[Union[str, os.PathLike]] = None,
    registry: Optional[MetricsRegistry] = None,
    export_env: bool = True,
    process_name: str = "repro",
) -> None:
    """Set the process-wide telemetry state.

    Parameters
    ----------
    metrics:
        ``True`` installs a fresh :class:`MetricsRegistry` (or ``registry``
        when given); ``False`` disables collection; ``None`` leaves the
        current state untouched.
    trace_dir:
        Directory for JSONL trace files; installs a :class:`Tracer` writing
        ``trace-<pid>.jsonl`` there.  ``None`` leaves tracing untouched.
    registry:
        Optional pre-built registry to install (implies ``metrics=True``).
    export_env:
        Mirror the state into :data:`METRICS_ENV` / :data:`TRACE_DIR_ENV` so
        executor worker processes (fork *and* spawn start methods) configure
        themselves identically at import.
    process_name:
        Label stamped into new trace files.
    """
    global _metrics, _tracer
    if registry is not None:
        _metrics = registry
        if export_env:
            os.environ[METRICS_ENV] = "1"
    elif metrics is True:
        _metrics = MetricsRegistry()
        if export_env:
            os.environ[METRICS_ENV] = "1"
    elif metrics is False:
        _metrics = None
        if export_env:
            os.environ.pop(METRICS_ENV, None)
    if trace_dir is not None:
        _tracer.close()
        _tracer = Tracer(trace_dir, process_name=process_name)
        if export_env:
            os.environ[TRACE_DIR_ENV] = str(trace_dir)


def disable(export_env: bool = True) -> None:
    """Reset telemetry to the no-op state (flushes any open trace file)."""
    global _metrics, _tracer
    _metrics = None
    _tracer.close()
    _tracer = NULL_TRACER
    if export_env:
        os.environ.pop(METRICS_ENV, None)
        os.environ.pop(TRACE_DIR_ENV, None)


def _configure_from_env() -> None:
    """Adopt the environment switches (runs once at import)."""
    enable_metrics = os.environ.get(METRICS_ENV, "") not in ("", "0")
    trace_dir = os.environ.get(TRACE_DIR_ENV) or None
    if enable_metrics or trace_dir:
        configure(
            metrics=True if enable_metrics else None,
            trace_dir=trace_dir,
            export_env=False,
        )


def _reset_in_child() -> None:
    """Give a forked child fresh telemetry locks and a trace file of its own.

    A fork copies a lock that another thread holds (an HTTP thread rendering
    ``/v1/metrics``, say) as held, and that thread does not exist in the
    child to release it: the child's first counter or span would wait
    forever.  The tracer is restarted in place, so references cached before
    the fork write the child's spans to ``trace-<child pid>.jsonl`` too.
    """
    if _metrics is not None:
        _metrics._lock = threading.RLock()
    if isinstance(_tracer, Tracer):
        _tracer.start_process()


_configure_from_env()
atexit.register(lambda: _tracer.close())
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)
