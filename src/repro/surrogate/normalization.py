"""Input/output normalisation for the surrogate.

The surrogate input mixes Kelvin temperatures in ``[100, 500]`` with a time
step index in ``[0, T]``, and its output is a temperature field in roughly the
same Kelvin range.  Training an MLP directly on those scales is ill-
conditioned, so inputs and targets are mapped to ``[0, 1]`` (min–max, with the
bounds known a priori from the experiment configuration, so the scaler is
identical for on-line and off-line training and never needs fitting on data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.sampling.bounds import ParameterBounds

__all__ = ["MinMaxScaler", "SurrogateScalers"]


@dataclass
class MinMaxScaler:
    """Affine map from ``[low, high]`` (per feature) to ``[0, 1]``."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self) -> None:
        self.low = np.asarray(self.low, dtype=np.float64).reshape(-1)
        self.high = np.asarray(self.high, dtype=np.float64).reshape(-1)
        if self.low.shape != self.high.shape:
            raise ValueError("low and high must have the same shape")
        if np.any(self.high <= self.low):
            raise ValueError("high must be strictly greater than low for every feature")

    @property
    def dim(self) -> int:
        return self.low.shape[0]

    def transform(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Map ``values`` to ``[0, 1]``; ``out`` (may be ``values``) receives the result."""
        arr = np.asarray(values, dtype=np.float64)
        shifted = np.subtract(arr, self.low, out=out)
        return np.divide(shifted, self.high - self.low, out=out)

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        return arr * (self.high - self.low) + self.low

    @classmethod
    def scalar(cls, low: float, high: float) -> "MinMaxScaler":
        return cls(np.array([low]), np.array([high]))


@dataclass
class SurrogateScalers:
    """The pair of scalers used by the multi-parametric direct surrogate.

    * ``input_scaler`` maps the 6-dimensional NN input ``[T0..T4, t]`` to
      ``[0, 1]^6``.
    * ``output_scaler`` maps every field value (a temperature bounded by the
      extreme parameter values, by the discrete maximum principle) to
      ``[0, 1]``.
    """

    input_scaler: MinMaxScaler
    output_scaler: MinMaxScaler

    @classmethod
    def from_bounds(cls, bounds: ParameterBounds, n_timesteps: int) -> "SurrogateScalers":
        """Build the a-priori min-max scalers for any bounded-field workload.

        Inputs are the parameter vector plus the time-step index; outputs are
        field values bounded by the extreme parameter values (which holds for
        every heat workload by the discrete maximum principle).
        """
        input_low = np.concatenate([bounds.low_array, [0.0]])
        input_high = np.concatenate([bounds.high_array, [float(n_timesteps)]])
        field_low = float(bounds.low_array.min())
        field_high = float(bounds.high_array.max())
        return cls(
            input_scaler=MinMaxScaler(input_low, input_high),
            output_scaler=MinMaxScaler.scalar(field_low, field_high),
        )

    @classmethod
    def from_field_range(
        cls,
        bounds: ParameterBounds,
        n_timesteps: int,
        field_low: float,
        field_high: float,
    ) -> "SurrogateScalers":
        """Build scalers with an *explicit* output range.

        :meth:`from_bounds` assumes the field values share the parameter
        range (true for the heat workloads, where every parameter is a
        temperature); workloads whose parameters are geometric — pulse
        centers, widths, reaction rates — pass their a-priori field range
        here instead.
        """
        input_low = np.concatenate([bounds.low_array, [0.0]])
        input_high = np.concatenate([bounds.high_array, [float(n_timesteps)]])
        return cls(
            input_scaler=MinMaxScaler(input_low, input_high),
            output_scaler=MinMaxScaler.scalar(float(field_low), float(field_high)),
        )

    def encode_input(self, parameters: np.ndarray, timestep: float | np.ndarray) -> np.ndarray:
        """Build and normalise NN input rows from parameters and time steps.

        ``parameters`` may be a single vector (returns one row) or a batch of
        vectors paired with an array of time steps.
        """
        params = np.asarray(parameters, dtype=np.float64)
        if params.ndim == 1:
            row = np.concatenate([params, [float(timestep)]])
            return self.input_scaler.transform(row)
        steps = np.asarray(timestep, dtype=np.float64).reshape(-1, 1)
        if steps.shape[0] != params.shape[0]:
            raise ValueError("parameters and timesteps must have the same batch size")
        rows = np.concatenate([params, steps], axis=1)
        return self.input_scaler.transform(rows)

    def encode_output(self, field: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.output_scaler.transform(np.asarray(field, dtype=np.float64), out=out)

    def encode_output_blocks(self, blocks: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
        """:meth:`encode_output` of the ``blocks`` stacked, written into ``out`` (their total rows).

        One subtract per block lands in ``out`` and one divide updates it in
        place: the element-wise operations, and so the bits, of
        :meth:`encode_output` on each block.
        """
        scaler = self.output_scaler
        start = 0
        for block in blocks:
            np.subtract(block, scaler.low, out=out[start : start + len(block)])
            start += len(block)
        return np.divide(out, scaler.high - scaler.low, out=out)

    def decode_output(self, field: np.ndarray) -> np.ndarray:
        return self.output_scaler.inverse_transform(np.asarray(field, dtype=np.float64))
