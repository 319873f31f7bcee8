"""End-to-end golden runs: the tape engine must not move a single bit.

``golden_workloads.json`` was captured with the hand-wired (pre-tape)
backward implementations — one tiny but complete on-line training run per
registered workload, recording the final losses and a SHA-256 digest of
every model weight.  The autograd-tape refactor must reproduce these values
*bit-identically*: any change to the recorded numbers means the derived
backward passes are not the exact arithmetic of the hand-wired kernels.

Regenerate (only when an intentional numeric change lands) with::

    PYTHONPATH=src python tests/nn/test_golden_workloads.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.breed.samplers import BreedConfig
from repro.api import OnlineTrainingConfig, run_online_training
from repro.solvers.heat2d import Heat2DConfig

GOLDEN_PATH = Path(__file__).parent / "golden_workloads.json"

WORKLOADS = (
    "heat2d",
    "heat1d",
    "analytic",
    "advection1d",
    "advection2d",
    "burgers",
    "fisher",
)


def golden_config(workload: str) -> OnlineTrainingConfig:
    """A seconds-scale but complete run of one workload (fixed forever)."""
    return OnlineTrainingConfig(
        method="breed",
        workload=workload,
        heat=Heat2DConfig(grid_size=6, n_timesteps=5),
        breed=BreedConfig(sigma=25.0, period=10, window=30, r_start=0.5, r_end=0.7, r_breakpoint=2),
        n_simulations=16,
        hidden_size=8,
        n_hidden_layers=2,
        batch_size=16,
        job_limit=4,
        timesteps_per_tick=1,
        train_iterations_per_tick=2,
        reservoir_capacity=120,
        reservoir_watermark=24,
        max_iterations=50,
        validation_period=20,
        n_validation_trajectories=3,
        seed=11,
    )


def run_golden(workload: str) -> dict:
    """Run one golden configuration and summarise it exactly."""
    result = run_online_training(golden_config(workload))
    digest = hashlib.sha256()
    state = result.model.state_dict()
    for key in sorted(state):
        digest.update(key.encode())
        digest.update(state[key].tobytes())
    return {
        "final_train_loss": result.final_train_loss,
        "final_validation_loss": result.final_validation_loss,
        "train_losses": list(result.history.train_losses),
        "weights_sha256": digest.hexdigest(),
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_run_bit_identical(workload):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert workload in golden, f"no golden record for {workload!r}; regenerate the file"
    observed = run_golden(workload)
    expected = golden[workload]
    # Losses are compared exactly: JSON round-trips IEEE-754 doubles via the
    # shortest-repr rule, so == here is bit-identity, not closeness.
    assert observed["final_train_loss"] == expected["final_train_loss"]
    assert observed["final_validation_loss"] == expected["final_validation_loss"]
    assert observed["train_losses"] == expected["train_losses"]
    assert observed["weights_sha256"] == expected["weights_sha256"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regenerate", action="store_true", help="rewrite golden_workloads.json")
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("pass --regenerate to rewrite the golden file")
    records = {workload: run_golden(workload) for workload in WORKLOADS}
    GOLDEN_PATH.write_text(json.dumps(records, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(records)} workloads)")
