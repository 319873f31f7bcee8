"""Loss-deviation based acquisition metric (Section 3.1, Eqs. 4–6).

Breed needs a per-parameter-vector informativeness score ``Q_j`` that can be
computed *only* from quantities already available during training (per-sample
losses of each batch), is comparable across NN iterations, and requires
O(1) memory per seen sample.  The paper's construction:

* for every sample ``x_{j,t}`` appearing in batch ``b_i`` with per-sample loss
  ``l^{(i)}_{jt}``, compute the positive normalised deviation from the batch
  statistics (Eq. 4)::

      δ^{(i)}_{jt} = max(l^{(i)}_{jt} − μ(l^{(i)}), 0) / σ(l^{(i)})

* average the deviations across the batches the sample appeared in (the set
  ``I_{jt}``) and then across time steps (Eqs. 5–6)::

      Q_j = (1/T) Σ_t (1/|I_{jt}|) Σ_{i∈I_{jt}} δ^{(i)}_{jt}

Both averages are maintained incrementally ("Not to store all the values, we
iteratively update the statistic upon the availability of new values").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.moving_average import OnlineMean

__all__ = ["SampleLossObservation", "LossDeviationTracker"]


@dataclass(frozen=True)
class SampleLossObservation:
    """One per-sample loss observation from one training batch.

    Attributes
    ----------
    simulation_id:
        Parameter-vector index ``j``.
    timestep:
        Time step ``t`` of the sample within its trajectory.
    iteration:
        NN training iteration ``i`` of the batch.
    sample_loss:
        ``l^{(i)}_{jt}``.
    batch_mean, batch_std:
        ``μ(l^{(i)})`` and ``σ(l^{(i)})`` of the batch the sample belonged to.
    """

    simulation_id: int
    timestep: int
    iteration: int
    sample_loss: float
    batch_mean: float
    batch_std: float

    def deviation(self, epsilon: float = 1e-12) -> float:
        """Eq. 4: positive deviation normalised by the batch standard deviation."""
        sigma = self.batch_std if self.batch_std > epsilon else epsilon
        return max(self.sample_loss - self.batch_mean, 0.0) / sigma


@dataclass
class _SimulationRecord:
    """Incremental statistics for one parameter vector ``λ_j``."""

    parameters: np.ndarray
    per_timestep: Dict[int, OnlineMean] = field(default_factory=dict)
    last_update_order: int = -1
    n_observations: int = 0

    def q_value(self) -> float:
        """Eq. 5–6: average of the per-timestep mean deviations."""
        if not self.per_timestep:
            return 0.0
        return float(np.mean([m.mean for m in self.per_timestep.values()]))


class LossDeviationTracker:
    """Maintains ``Q_j`` for every parameter vector whose samples were trained on.

    The tracker also keeps the order in which simulations last received an
    update, which the AMIS step uses to select its *window* (the last ``N``
    simulations "in order of Q_j value updates", Section 3.2).
    """

    def __init__(self, epsilon: float = 1e-12) -> None:
        self._records: Dict[int, _SimulationRecord] = {}
        self._epsilon = epsilon
        self._update_counter = 0
        #: total number of per-sample observations ingested
        self.n_observations = 0

    # -------------------------------------------------------------- ingest
    def register_parameters(self, simulation_id: int, parameters: np.ndarray) -> None:
        """Associate a parameter vector with a simulation id (idempotent)."""
        if simulation_id not in self._records:
            self._records[simulation_id] = _SimulationRecord(
                parameters=np.asarray(parameters, dtype=np.float64).copy()
            )

    def reassign_parameters(self, simulation_id: int, parameters: np.ndarray) -> None:
        """Overwrite a simulation's parameter vector after a steering update.

        A steered simulation has, by construction, never been executed, so any
        previously accumulated statistics for the id belong to the *old*
        parameters and are discarded along with them.
        """
        record = self._records.get(simulation_id)
        params = np.asarray(parameters, dtype=np.float64).copy()
        if record is None:
            self._records[simulation_id] = _SimulationRecord(parameters=params)
            return
        self.n_observations -= record.n_observations
        self._records[simulation_id] = _SimulationRecord(parameters=params)

    def observe(self, observation: SampleLossObservation, parameters: Optional[np.ndarray] = None) -> float:
        """Ingest one observation; returns the deviation value δ (Eq. 4)."""
        record = self._records.get(observation.simulation_id)
        if record is None:
            if parameters is None:
                raise KeyError(
                    f"simulation {observation.simulation_id} unknown; "
                    "call register_parameters first or pass parameters"
                )
            self.register_parameters(observation.simulation_id, parameters)
            record = self._records[observation.simulation_id]
        deviation = observation.deviation(self._epsilon)
        tracker = record.per_timestep.get(observation.timestep)
        if tracker is None:
            tracker = OnlineMean()
            record.per_timestep[observation.timestep] = tracker
        tracker.update(deviation)
        self._update_counter += 1
        record.last_update_order = self._update_counter
        record.n_observations += 1
        self.n_observations += 1
        return deviation

    def observe_batch(
        self,
        iteration: int,
        simulation_ids: Sequence[int],
        timesteps: Sequence[int],
        sample_losses: Sequence[float],
        parameters: Optional[Sequence[np.ndarray]] = None,
    ) -> Tuple[float, float]:
        """Ingest a whole training batch at once.

        Returns the batch mean/std used for the deviations (convenient for
        logging and for the Fig. 6 correlation analysis).
        """
        losses = np.asarray(sample_losses, dtype=np.float64)
        if losses.size == 0:
            return 0.0, 0.0
        mean = float(losses.mean())
        std = float(losses.std())
        for index, (sim_id, timestep, loss) in enumerate(zip(simulation_ids, timesteps, losses)):
            params = None if parameters is None else parameters[index]
            self.observe(
                SampleLossObservation(
                    simulation_id=int(sim_id),
                    timestep=int(timestep),
                    iteration=int(iteration),
                    sample_loss=float(loss),
                    batch_mean=mean,
                    batch_std=std,
                ),
                parameters=params,
            )
        return mean, std

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Every per-simulation statistic, preserving both dict orders.

        Record order and per-timestep order are preserved exactly:
        :meth:`window` feeds ``q_value`` means into AMIS, and
        :meth:`_SimulationRecord.q_value` averages ``per_timestep`` values in
        insertion order — floating-point summation order is part of the
        bit-identical resume contract.
        """
        return {
            "update_counter": self._update_counter,
            "n_observations": self.n_observations,
            "records": [
                {
                    "simulation_id": sid,
                    "parameters": record.parameters.copy(),
                    "last_update_order": record.last_update_order,
                    "n_observations": record.n_observations,
                    "timesteps": np.array(list(record.per_timestep), dtype=np.int64),
                    "means": np.array([m.mean for m in record.per_timestep.values()], dtype=np.float64),
                    "counts": np.array([m.count for m in record.per_timestep.values()], dtype=np.int64),
                }
                for sid, record in self._records.items()
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self._update_counter = int(state["update_counter"])
        self.n_observations = int(state["n_observations"])
        self._records = {}
        for payload in state["records"]:
            record = _SimulationRecord(
                parameters=np.asarray(payload["parameters"], dtype=np.float64).copy(),
                last_update_order=int(payload["last_update_order"]),
                n_observations=int(payload["n_observations"]),
            )
            for timestep, mean, count in zip(payload["timesteps"], payload["means"], payload["counts"]):
                tracker = OnlineMean()
                tracker.mean = float(mean)
                tracker.count = int(count)
                record.per_timestep[int(timestep)] = tracker
            self._records[int(payload["simulation_id"])] = record

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, simulation_id: int) -> bool:
        return simulation_id in self._records

    def q_value(self, simulation_id: int) -> float:
        record = self._records.get(simulation_id)
        return record.q_value() if record is not None else 0.0

    def parameters(self, simulation_id: int) -> np.ndarray:
        return self._records[simulation_id].parameters

    def observed_ids(self) -> List[int]:
        """Simulation ids with at least one ingested observation."""
        return [sid for sid, rec in self._records.items() if rec.n_observations > 0]

    def window(self, size: int) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """Return the last ``size`` observed simulations by update recency.

        Returns
        -------
        locations:
            Parameter vectors, shape ``(n, d)`` with ``n <= size``.
        q_values:
            Matching ``Q_j`` values, shape ``(n,)``.
        ids:
            Matching simulation ids.
        """
        if size <= 0:
            raise ValueError("window size must be positive")
        observed = [
            (rec.last_update_order, sid, rec) for sid, rec in self._records.items() if rec.n_observations > 0
        ]
        observed.sort(key=lambda item: item[0], reverse=True)
        selected = observed[:size]
        if not selected:
            return np.empty((0, 0)), np.empty((0,)), []
        ids = [sid for _, sid, _ in selected]
        locations = np.stack([rec.parameters for _, _, rec in selected], axis=0)
        q_values = np.array([rec.q_value() for _, _, rec in selected], dtype=np.float64)
        return locations, q_values, ids

    def all_q_values(self) -> Dict[int, float]:
        return {sid: rec.q_value() for sid, rec in self._records.items() if rec.n_observations > 0}
