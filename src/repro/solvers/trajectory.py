"""Trajectory containers.

A *trajectory* is the sequence of solution fields produced by a solver for one
input-parameter vector ``λ_j``:  ``x_j = [x_{j,0} → x_{j,1} → … → x_{j,T}]``
(Section 2.1 of the paper).  In the on-line setting the fields are streamed
time step by time step, so the container also supports incremental appends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

import numpy as np

__all__ = ["TimeStepSample", "Trajectory"]


@dataclass(frozen=True)
class TimeStepSample:
    """One training sample: a solution field at one time step of one trajectory.

    Attributes
    ----------
    simulation_id:
        Index ``j`` of the parameter vector in the experiment budget.
    parameters:
        Input-parameter vector ``λ_j`` (for the heat case: ``[T0..T4]``).
    timestep:
        Time-step index ``t``.
    field:
        Flattened solution field ``x_{j,t}`` (length ``M²`` for the 2-D heat
        case).
    """

    simulation_id: int
    parameters: np.ndarray
    timestep: int
    field: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", np.asarray(self.parameters, dtype=np.float64))
        object.__setattr__(self, "field", np.asarray(self.field, dtype=np.float64).reshape(-1))

    @property
    def key(self) -> tuple[int, int]:
        """Unique identifier ``(j, t)`` of the sample within an experiment."""
        return (self.simulation_id, self.timestep)


@dataclass
class Trajectory:
    """Full (or partially streamed) trajectory for one parameter vector."""

    simulation_id: int
    parameters: np.ndarray
    fields: List[np.ndarray] = field(default_factory=list)
    timesteps: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.parameters = np.asarray(self.parameters, dtype=np.float64)

    def append(self, timestep: int, field_values: np.ndarray) -> TimeStepSample:
        """Append one time step and return the corresponding sample."""
        if self.timesteps and timestep <= self.timesteps[-1]:
            raise ValueError(
                f"timesteps must be strictly increasing, got {timestep} after {self.timesteps[-1]}"
            )
        flat = np.asarray(field_values, dtype=np.float64).reshape(-1)
        self.fields.append(flat)
        self.timesteps.append(int(timestep))
        return TimeStepSample(self.simulation_id, self.parameters, int(timestep), flat)

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[TimeStepSample]:
        for t, f in zip(self.timesteps, self.fields):
            yield TimeStepSample(self.simulation_id, self.parameters, t, f)

    def as_array(self) -> np.ndarray:
        """Stack the fields into a ``(T, M²)`` array."""
        if not self.fields:
            return np.empty((0, 0), dtype=np.float64)
        return np.stack(self.fields, axis=0)

    @property
    def final_field(self) -> np.ndarray:
        if not self.fields:
            raise ValueError("trajectory is empty")
        return self.fields[-1]
