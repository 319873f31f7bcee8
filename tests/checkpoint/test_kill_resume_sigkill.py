"""Process-level fault tolerance: a SIGKILLed run resumes bit-identically.

Unlike the in-process matrix tests, this drives the actual failure mode: a
subprocess training with periodic snapshots is SIGKILLed mid-run (no cleanup,
no atexit — the same signal an OOM killer or a preempted node delivers), and
the resumed run must match an uninterrupted reference exactly — once for a
kill between snapshots and once for a kill inside a snapshot write.  The scenario
is implemented by ``scripts/kill_resume_smoke.py`` so CI can run the same
smoke outside pytest.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow  # real SIGKILL + full resume in subprocesses

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "kill_resume_smoke.py"


def test_sigkill_and_resume_is_bit_identical(tmp_path):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), "--workdir", str(tmp_path / "smoke")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "OK: kill-and-resume is bit-identical" in completed.stdout
    # the victim really was SIGKILLed and really left snapshots behind
    assert "SIGKILLed" in completed.stdout
    # the second victim died inside a snapshot write and resumed from the one before
    assert "resumes bit-identically and its orphan is pruned" in completed.stdout
