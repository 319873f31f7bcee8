"""Reusable deterministic fault injection for the resilience test matrix.

This is the *test-facing* half of the fault machinery; the engine-side hook
(:func:`repro.workflow.faults.maybe_inject` and its env-var protocol) lives
in ``src`` so process-backend workers inherit it through their environment
and :class:`~repro.workflow.faults.InjectedFault` unpickles across process
boundaries.

Three tools:

* :class:`CrashAt` — a picklable "crash when this node's run #N is reached"
  value object.  ``point="run"`` fires at the top of ``execute_spec`` in
  whichever process executes the run (the serial driver, or a
  process-backend worker); ``point="record"`` fires in the campaign driver
  right after the run's record is durable — the way to SIGKILL the
  orchestrator itself at a run boundary under any backend.
* :func:`run_campaign_cli` — drive ``repro campaign`` as a subprocess in its
  own session, optionally with a :class:`CrashAt` armed, and always reap the
  fallout (orphaned worker processes) before returning — a SIGKILLed driver
  cannot run its cleanup ``finally``.
* :func:`interrupt_after_runs` — the in-process service-test helper: trip a
  worker's stop event after N completed runs (replacing the ad-hoc
  ``record_run_finished`` wrapping the mid-job interruption tests used).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.workflow.faults import ARM_ENV, MODE_ENV, TOKEN_ENV, InjectedFault  # noqa: F401

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: exit status of a process that died from SIGKILL
SIGKILLED = -signal.SIGKILL


@dataclass(frozen=True)
class CrashAt:
    """Deterministic crash request: node ``node``, run ``run_index``.

    Picklable by construction (plain data), so it can cross into
    process-backend workers or be embedded in spawned-subprocess environments.  ``mode``
    selects the failure: ``"sigkill"`` kills the hosting process mid-flight
    (nothing flushes), ``"raise"`` raises :class:`InjectedFault` through the
    normal error paths (arm it with an arm file to make it one-shot, so a
    retry succeeds).
    """

    node: str
    run_index: int
    point: str = "run"
    mode: str = "sigkill"

    @property
    def run_name(self) -> str:
        return f"{self.node}:{self.run_index}"

    @property
    def token(self) -> str:
        return f"{self.point}:{self.run_name}"

    def env(self, arm_file: Optional[Path] = None) -> Dict[str, str]:
        """Environment variables arming this fault (see repro.workflow.faults)."""
        payload = {TOKEN_ENV: self.token, MODE_ENV: self.mode}
        if arm_file is not None:
            payload[ARM_ENV] = str(arm_file)
        return payload

    def install(self, monkeypatch, arm_file: Optional[Path] = None) -> None:
        """Arm the fault in *this* process (monkeypatch keeps it test-scoped)."""
        for key, value in self.env(arm_file).items():
            monkeypatch.setenv(key, value)


def arm_file(tmp_path: Path, name: str = "fault.arm") -> Path:
    """Create a one-shot arm file (consumed atomically by the first firing)."""
    path = tmp_path / name
    path.write_text("armed")
    return path


def reap_session(pgid: int) -> None:
    """Kill a dead driver's leftover process group.

    A SIGKILLed process-backend driver leaves workers blocked on a broken
    task queue.  Tests call this after every subprocess campaign invocation
    (crashing or not — it is a no-op for clean exits).
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_campaign_cli(
    args: List[str],
    cwd: Path,
    fault: Optional[CrashAt] = None,
    fault_arm_file: Optional[Path] = None,
    timeout: float = 600.0,
) -> Tuple[int, str, str]:
    """Run ``python -m repro.cli campaign <args>`` in its own session.

    Returns ``(returncode, stdout, stderr)``; a ``sigkill``-mode fault shows
    up as ``returncode == SIGKILLED``.  The child gets a scrubbed fault
    environment unless ``fault`` is given, and its whole session (worker
    pools included) is reaped afterwards so crashed invocations cannot leak
    processes into later tests.
    """
    env = os.environ.copy()
    for key in (TOKEN_ENV, MODE_ENV, ARM_ENV):
        env.pop(key, None)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    if fault is not None:
        env.update(fault.env(fault_arm_file))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign", *[str(a) for a in args]],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    finally:
        reap_session(process.pid)
    return process.returncode, stdout, stderr


def interrupt_after_runs(store, stop_event, n_runs: int = 1) -> None:
    """Trip ``stop_event`` once ``n_runs`` runs have finished on ``store``.

    Wraps ``store.record_run_finished`` — the worker's per-run bookkeeping —
    so the worker observes the stop request at the next run boundary, the
    exact interruption shape of a graceful service shutdown mid-job.
    """
    bookkeeping = store.record_run_finished
    remaining = [n_runs]

    def wrapped(job_id, name, metrics):
        bookkeeping(job_id, name, metrics)
        remaining[0] -= 1
        if remaining[0] <= 0:
            stop_event.set()

    store.record_run_finished = wrapped
