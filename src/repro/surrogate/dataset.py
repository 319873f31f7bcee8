"""Offline dataset utilities.

The paper contrasts on-line training against the standard *off-line* pipeline
(generate the full dataset with the solver, store it, read it back in
epoch-based training).  These helpers implement that baseline so
``examples/offline_vs_online.py`` can compare both regimes on equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.solvers.base import Solver
from repro.surrogate.normalization import SurrogateScalers

__all__ = ["OfflineDataset", "generate_offline_dataset", "BatchIterator"]


@dataclass
class OfflineDataset:
    """A fully materialised supervised dataset of ``(λ, t) → field`` pairs.

    Attributes
    ----------
    inputs:
        Normalised NN inputs, shape ``(n_samples, input_dim)``.
    targets:
        Normalised NN targets, shape ``(n_samples, output_dim)``.
    simulation_ids / timesteps:
        Provenance of each sample (used by analysis code).
    """

    inputs: np.ndarray
    targets: np.ndarray
    simulation_ids: np.ndarray
    timesteps: np.ndarray

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        self.simulation_ids = np.asarray(self.simulation_ids, dtype=np.int64)
        self.timesteps = np.asarray(self.timesteps, dtype=np.int64)
        n = self.inputs.shape[0]
        if not (self.targets.shape[0] == self.simulation_ids.shape[0] == self.timesteps.shape[0] == n):
            raise ValueError("all dataset arrays must have the same first dimension")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset(self, indices: Sequence[int]) -> "OfflineDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return OfflineDataset(
            self.inputs[idx], self.targets[idx], self.simulation_ids[idx], self.timesteps[idx]
        )

    def split(self, fraction: float, rng: np.random.Generator) -> Tuple["OfflineDataset", "OfflineDataset"]:
        """Random split into (train, held-out) with ``fraction`` in train."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        n = len(self)
        permutation = rng.permutation(n)
        cut = int(round(fraction * n))
        return self.subset(permutation[:cut]), self.subset(permutation[cut:])

    # ------------------------------------------------------------ persistence
    def save(self, path: str | Path) -> Path:
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            inputs=self.inputs,
            targets=self.targets,
            simulation_ids=self.simulation_ids,
            timesteps=self.timesteps,
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "OfflineDataset":
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(".npz")
        with np.load(path) as archive:
            return cls(
                archive["inputs"],
                archive["targets"],
                archive["simulation_ids"],
                archive["timesteps"],
            )

    @property
    def nbytes(self) -> int:
        """Storage footprint of the dataset — the off-line pipeline's cost."""
        return int(self.inputs.nbytes + self.targets.nbytes)


def generate_offline_dataset(
    solver: Solver,
    parameter_vectors: np.ndarray,
    scalers: SurrogateScalers,
    include_initial_step: bool = True,
) -> OfflineDataset:
    """Run the solver for every parameter vector and materialise the dataset."""
    inputs: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    sim_ids: List[int] = []
    steps: List[int] = []
    vectors = np.atleast_2d(np.asarray(parameter_vectors, dtype=np.float64))
    for sim_id, params in enumerate(vectors):
        for timestep, field in enumerate(solver.steps(params)):
            if timestep == 0 and not include_initial_step:
                continue
            inputs.append(scalers.encode_input(params, timestep))
            targets.append(scalers.encode_output(field))
            sim_ids.append(sim_id)
            steps.append(timestep)
    return OfflineDataset(
        inputs=np.stack(inputs, axis=0),
        targets=np.stack(targets, axis=0),
        simulation_ids=np.asarray(sim_ids),
        timesteps=np.asarray(steps),
    )


class BatchIterator:
    """Epoch-based mini-batch iterator over an :class:`OfflineDataset`."""

    def __init__(
        self,
        dataset: OfflineDataset,
        batch_size: int,
        rng: np.random.Generator,
        shuffle: bool = True,
        drop_last: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.rng = rng
        self.shuffle = shuffle
        self.drop_last = drop_last

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            if self.drop_last and idx.size < self.batch_size:
                break
            yield self.dataset.inputs[idx], self.dataset.targets[idx], idx
