"""Deterministic fault injection for the kill-and-resume test matrix.

The study/campaign resilience tests need to crash a *chosen* run in a
*chosen* process — the serial driver, a process-backend worker, or the
campaign orchestrator at a run boundary — deterministically and from outside
the process (env vars cross every backend's worker boundary for free).  This
module is the single injection point:

* ``REPRO_FAULT_TOKEN`` — ``"<point>:<run name>"``; the fault fires when
  :func:`maybe_inject` is called with a matching point/name.  Points wired
  into the engine: ``run`` (top of
  :func:`~repro.workflow.executor.execute_spec`, i.e. in whichever process
  executes the run), ``record`` (the campaign driver, after a run's
  record is durable) and ``snapshot`` (a session snapshot write, named
  ``step-XXXXXXXX``, after its files are synced and before the rename).
* ``REPRO_FAULT_MODE`` — ``"sigkill"`` (default: the hosting process dies
  mid-flight, nothing flushes) or ``"raise"`` (an :class:`InjectedFault`
  propagates through the normal error paths; it lives here, importable from
  ``repro``, precisely so process-backend workers can pickle it back).
* ``REPRO_FAULT_ARM`` — optional path to an *arm file*; the fault only fires
  while the file exists and consumes it atomically when it does, making
  ``raise`` faults one-shot (a retried node succeeds on its second attempt).

Production code calls :func:`maybe_inject` unconditionally — with the env
unset it is one dict lookup, and the engine's determinism contract is
untouched because a fired fault never lets the run produce a result at all.

Test-facing helpers (building these env dicts, driving subprocesses,
reaping leaked workers) live in ``tests/campaign/faults.py``.
"""

from __future__ import annotations

import os
import signal

__all__ = ["ARM_ENV", "InjectedFault", "MODE_ENV", "TOKEN_ENV", "maybe_inject"]

TOKEN_ENV = "REPRO_FAULT_TOKEN"
MODE_ENV = "REPRO_FAULT_MODE"
ARM_ENV = "REPRO_FAULT_ARM"


class InjectedFault(RuntimeError):
    """A deliberately injected failure (test harness only)."""


def maybe_inject(point: str, name: str) -> None:
    """Fire the armed fault if ``point:name`` matches ``REPRO_FAULT_TOKEN``."""
    token = os.environ.get(TOKEN_ENV)
    if token is None or token != f"{point}:{name}":
        return
    arm = os.environ.get(ARM_ENV)
    if arm is not None:
        try:
            os.unlink(arm)  # atomic consume: exactly one firing per arming
        except FileNotFoundError:
            return
    mode = os.environ.get(MODE_ENV, "sigkill")
    if mode == "raise":
        raise InjectedFault(f"injected fault at {point}:{name}")
    if mode == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("unreachable")  # pragma: no cover
    raise ValueError(f"unknown {MODE_ENV} {mode!r} (use 'sigkill' or 'raise')")
