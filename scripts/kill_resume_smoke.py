#!/usr/bin/env python
"""Kill-and-resume smoke test: SIGKILL a checkpointing run, resume, compare.

Driver mode (no ``--mode``) orchestrates the whole scenario in one command::

    PYTHONPATH=src python scripts/kill_resume_smoke.py

1. run the configuration uninterrupted, from scratch, and record how many
   training iterations it actually performs — the kill point is derived from
   that count (half-way through), so the victim is *guaranteed* to be killed
   strictly mid-run regardless of how the scale presets evolve (a fixed kill
   iteration used to flake when the run terminated before reaching it),
2. spawn a *victim* subprocess running the same tiny fig3a-style training run
   (H=16, L=1, Breed) with ``checkpoint_every`` snapshots, which SIGKILLs
   itself at the derived iteration — no cleanup, no atexit, exactly like an
   OOM kill or node failure,
3. check the victim died from SIGKILL and left complete snapshots behind,
4. resume the run from its latest snapshot and drive it to completion,
5. assert the resumed and uninterrupted runs' final metrics, full loss
   series and Fig. 6 correlation matrix (built from the per-sample
   statistics every snapshot carries) are **bit-identical**,
6. spawn a second victim that SIGKILLs itself *inside* the write of the
   newest snapshot the first victim left — archive and manifest on disk, the
   rename not done (the ``snapshot`` fault point of
   :mod:`repro.workflow.faults`) — and check that it left an orphan tmp
   directory and no such snapshot,
7. resume it from the snapshot before, assert bit-identity again, and check
   that the resumed run's next save pruned the orphan,
8. resume a resumed run: a third victim is SIGKILLed just after its first
   snapshot, a fourth resumes it and is SIGKILLed after writing snapshots of
   its own, and the run resumed from those finishes bit-identically.  The
   reservoir is full before the first snapshot, so the fourth victim adopts
   the loaded rows as its buffer and writes into it, and the final restore
   reads a snapshot written from that buffer.

Exit code 0 means the fault-tolerance contract holds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional


#: snapshot interval (training batches) of the victim/resume configurations
CHECKPOINT_EVERY = 20

#: reservoir rows; the run fills them at iteration 18, before its first snapshot
RESERVOIR_CAPACITY = 80


def build_config(checkpoint_dir: str | None = None, checkpoint_every: int = 0):
    from repro.experiments.base import base_config

    config = base_config("smoke", method="breed", seed=0)
    return dataclasses.replace(
        config,
        hidden_size=16,
        n_hidden_layers=1,
        n_simulations=24,
        max_iterations=120,
        n_validation_trajectories=4,
        reservoir_capacity=RESERVOIR_CAPACITY,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )


def metrics_of(result) -> dict:
    from repro.analysis.correlation import correlation_matrix

    return {
        "final_train_loss": result.final_train_loss,
        "final_validation_loss": result.final_validation_loss,
        "iterations": result.server_summary["iterations"],
        "n_ticks": result.n_ticks,
        "transport_bytes": result.transport_bytes,
        "steering_events": len(result.steering_records),
        "parameter_sources": result.parameter_sources,
        "executed_parameters": result.executed_parameters.tolist(),
        "train_losses": list(result.history.train_losses),
        "train_iterations": list(result.history.train_iterations),
        "validation_losses": list(result.history.validation_losses),
        "validation_iterations": list(result.history.validation_iterations),
        "sample_correlations": correlation_matrix(result.history.sample_statistics).matrix.tolist(),
    }


def run_victim(workdir: Path, kill_at_iteration: Optional[int]) -> None:
    """Run with checkpointing and SIGKILL ourselves at the given iteration.

    Without an iteration only an armed fault (``REPRO_FAULT_TOKEN``) kills it.
    """
    from repro.checkpoint import resume_or_start

    config = build_config(str(workdir / "snapshots"), checkpoint_every=CHECKPOINT_EVERY)
    session = resume_or_start(config)
    if session.server.iteration > 0:  # a resumed victim: record what it resumed for step 7
        resumed = {"iteration": session.server.iteration, "reservoir_full": session.reservoir.is_full}
        (workdir / "victim-resumed.json").write_text(json.dumps(resumed))

    def kill(s) -> None:
        if s.server.iteration >= kill_at_iteration:
            os.kill(os.getpid(), signal.SIGKILL)

    if kill_at_iteration is not None:
        session.on_tick.append(kill)
    resumed_at = session.server.iteration
    session.run()
    raise SystemExit(
        "victim survived to completion: "
        f"started at iteration {resumed_at}, ended at {session.server.iteration} "
        f"after {session.n_ticks} ticks with kill_at_iteration={kill_at_iteration}"
    )


def run_resume(workdir: Path, out: Path) -> None:
    from repro.checkpoint import resume_or_start

    config = build_config(str(workdir / "snapshots"), checkpoint_every=CHECKPOINT_EVERY)
    session = resume_or_start(config)
    if session.server.iteration == 0:
        raise SystemExit("no snapshot found to resume from")
    result = session.run()
    out.write_text(json.dumps(metrics_of(result)))


def run_reference(out: Path) -> None:
    from repro.api.session import TrainingSession

    result = TrainingSession(build_config()).run()
    out.write_text(json.dumps(metrics_of(result)))


def derive_kill_iteration(reference: dict) -> int:
    """Mid-run kill point derived from the reference's *actual* iteration count.

    A fixed kill iteration flakes: if the run terminates (budget exhausted or
    data-starved) before ever reaching it, the victim survives to completion
    and the SIGKILL check fails.  Half the measured iteration count is
    strictly mid-run by construction.  The kill must also land *after* the
    first periodic snapshot: the kill hook runs before the checkpoint-policy
    hook on the tick that crosses both thresholds, so a kill point at or just
    past ``CHECKPOINT_EVERY`` could SIGKILL the victim with no snapshot on
    disk.  The floor of ``CHECKPOINT_EVERY + 5`` clears the snapshot tick
    (iterations advance a couple per tick); a reference run too short to
    accommodate it fails loudly instead of flaking.
    """
    iterations = int(reference["iterations"])
    floor = CHECKPOINT_EVERY + 5
    if iterations <= floor:
        raise SystemExit(
            f"reference run performed only {iterations} iteration(s); killing mid-run "
            f"after the first snapshot needs more than {floor} — lengthen the run"
        )
    return max(floor, iterations // 2)


def spawn_victim(workdir: Path, env: Dict[str, str], *args: str) -> bool:
    """Run a victim subprocess; True when it died from SIGKILL."""
    victim = subprocess.run(
        [sys.executable, __file__, "--mode", "victim", "--workdir", str(workdir), *args], env=env
    )
    if victim.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL):
        return True
    print(f"FAIL: victim exited with {victim.returncode}, expected SIGKILL")
    return False


def resume_matches(workdir: Path, reference: dict) -> bool:
    """Resume the victim's run to completion and compare it with the reference."""
    run_resume(workdir, workdir / "resumed.json")
    resumed = json.loads((workdir / "resumed.json").read_text())
    mismatches = [key for key in reference if resumed.get(key) != reference[key]]
    if mismatches:
        print(f"FAIL: resumed run differs from the reference in {mismatches}")
    return not mismatches


def drive(workdir: Path) -> int:
    workdir.mkdir(parents=True, exist_ok=True)
    print("[1/8] running the uninterrupted reference (also sizes the kill point)")
    run_reference(workdir / "reference.json")
    reference = json.loads((workdir / "reference.json").read_text())
    kill_at = derive_kill_iteration(reference)

    print(f"[2/8] spawning victim (SIGKILL at iteration {kill_at} "
          f"of {int(reference['iterations'])}) in {workdir}")
    if not spawn_victim(workdir, dict(os.environ), "--kill-at-iteration", str(kill_at)):
        return 1
    snapshots = sorted((workdir / "snapshots").glob("step-*"))
    print(f"[3/8] victim SIGKILLed; snapshots left behind: {[p.name for p in snapshots]}")
    if not snapshots:
        print("FAIL: the victim left no snapshots")
        return 1

    print("[4/8] resuming from the latest snapshot")
    if not resume_matches(workdir, reference):
        return 1
    print(
        "OK: kill-and-resume is bit-identical "
        f"(final validation MSE {reference['final_validation_loss']:.6f}, "
        f"{reference['iterations']:.0f} iterations)"
    )

    if len(snapshots) < 2:
        print("FAIL: a kill inside a snapshot write needs an earlier snapshot to resume from")
        return 1
    target = snapshots[-1].name
    write_kill = workdir / "write-kill"
    print(f"[5/8] spawning victim that SIGKILLs inside the write of {target} in {write_kill}")
    env = dict(os.environ, REPRO_FAULT_TOKEN=f"snapshot:{target}", REPRO_FAULT_MODE="sigkill")
    env.pop("REPRO_FAULT_ARM", None)
    if not spawn_victim(write_kill, env):
        return 1
    directory = write_kill / "snapshots"
    orphans = [p.name for p in directory.glob(".tmp-*")]
    left = [p.name for p in sorted(directory.glob("step-*"))]
    print(f"      left behind: snapshots {left}, orphans {orphans}")
    if not orphans or target in left or not left:
        print(f"FAIL: expected an orphan tmp directory, no {target} and an earlier snapshot")
        return 1

    print(f"[6/8] resuming from {left[-1]}")
    if not resume_matches(write_kill, reference):
        return 1
    leftovers = [p.name for p in directory.glob(".tmp-*")]
    if leftovers:
        print(f"FAIL: the resumed run's saves left the orphans {leftovers}")
        return 1
    print(f"OK: a kill inside the write of {target} resumes bit-identically and its orphan is pruned")

    first_kill, second_kill = CHECKPOINT_EVERY + 5, max(2 * CHECKPOINT_EVERY + 5, kill_at)
    if second_kill >= int(reference["iterations"]):
        print(f"FAIL: a second kill at iteration {second_kill} needs a longer run")
        return 1
    twice = workdir / "twice-killed"
    print(f"[7/8] spawning a victim SIGKILLed at iteration {first_kill}, then resuming it in a "
          f"second victim SIGKILLed at iteration {second_kill}, in {twice}")
    if not spawn_victim(twice, dict(os.environ), "--kill-at-iteration", str(first_kill)):
        return 1
    first_left = sorted((twice / "snapshots").glob("step-*"))
    if not spawn_victim(twice, dict(os.environ), "--kill-at-iteration", str(second_kill)):
        return 1
    resumed = json.loads((twice / "victim-resumed.json").read_text())
    left = sorted((twice / "snapshots").glob("step-*"))
    print(f"      the second victim resumed at iteration {resumed['iteration']} "
          f"(reservoir full: {resumed['reservoir_full']}) and left {[p.name for p in left]}")
    if not first_left or not resumed["reservoir_full"] or left[-1] in first_left:
        print("FAIL: expected the second victim to resume a full reservoir and save after it")
        return 1
    print(f"[8/8] resuming from {left[-1].name}, written by the resumed victim")
    if not resume_matches(twice, reference):
        return 1
    print("OK: a resumed run killed again resumes bit-identically")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["victim", "resume", "reference"], default=None)
    parser.add_argument("--workdir", default="results/kill_resume_smoke")
    parser.add_argument("--kill-at-iteration", type=int, default=None)
    args = parser.parse_args()
    workdir = Path(args.workdir)
    if args.mode == "victim":
        run_victim(workdir, args.kill_at_iteration)
        return 1  # unreachable unless the kill never fired
    if args.mode == "resume":
        run_resume(workdir, workdir / "resumed.json")
        return 0
    if args.mode == "reference":
        run_reference(workdir / "reference.json")
        return 0
    return drive(workdir)


if __name__ == "__main__":
    raise SystemExit(main())
