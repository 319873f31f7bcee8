"""Exact-equality oracle for Breed's column tracker.

:class:`repro.breed.acquisition.LossDeviationTracker` keeps Eqs. 4–6 as
columns: row ``j`` for simulation ``j``, one slot per time step in first-seen
order, and :func:`~repro.breed.acquisition.loss_deviations` computing Eq. 4
once per batch.  It replaced a tracker that built one ``SampleLossObservation``
per sample, updated a dict of ``OnlineMean`` objects and kept a parameter
vector per simulation.  Those classes are copied below, verbatim, as the
reference.

Hypothesis drives the reference and the columns through the same batches:
random simulation ids (repeated within a batch), time steps (repeated
(simulation, time step) pairs within a batch), losses with ties and
zero-spread batches, and parameter reassignments between batches.  A
reassignment only ever touches a simulation never observed (steering only
replaces pending simulations), so the columns see none of it: the caller's
parameter rows change, and the reference's copy.  The columns only queue a
batch; the first read folds every queued batch at once.  So the views —
``q_value``, ``window`` (its ids, ``Q_j`` values and locations, the caller's
``parameters[ids]`` on the columns' side), ``all_q_values``,
``observed_ids``, ``n_observations`` and the ``state_dict`` (the reference's
without never-observed records and the per-record parameters and counts the
columns do not write) — are read at random intervals of 0 to 20 batches,
and must then be equal bit for bit.  Part way through, again with batches
queued, a state written by each side is loaded into the other (the
reference's with those fields re-derived), and the loaded copies must go on
identically too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.breed import acquisition as columns

# ---------------------------------------------------------------------------
# The reference: OnlineMean, SampleLossObservation and the tracker, verbatim
# ---------------------------------------------------------------------------


class OnlineMean:
    """Numerically stable streaming mean."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        self.mean += (float(value) - self.mean) / self.count

    def __float__(self) -> float:
        return self.mean


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


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def assert_same(a, b, path: str = "state") -> None:
    """Equal key for key and in key order; floats and arrays bit for bit."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), path
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), (path, a, b)
    elif isinstance(a, dict):
        assert isinstance(b, dict) and list(a) == list(b), path
        for key in a:
            assert_same(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), path
        for index, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{index}]")
    elif isinstance(a, float):
        assert type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes(), (path, a, b)
    else:
        assert type(a) is type(b) and a == b, (path, a, b)


#: the keys of a record the columns write, in their order
COLUMN_RECORD_KEYS = ("simulation_id", "last_update_order", "timesteps", "means", "counts")


def reference_views(tracker: LossDeviationTracker, ids: List[int], parameters: np.ndarray) -> dict:
    """Everything a caller can read off the reference, as the columns give it."""
    windows = []
    for size in (1, 3, 1000):
        locations, q_values, window_ids = tracker.window(size)
        windows.append((window_ids, locations if window_ids else parameters[:0], q_values))
    state = tracker.state_dict()
    state["records"] = [
        {key: record[key] for key in COLUMN_RECORD_KEYS}
        for record in state["records"]
        if record["n_observations"] > 0
    ]
    return {
        "q_value": [tracker.q_value(sid) for sid in ids],
        "window": windows,
        "all_q_values": tracker.all_q_values(),
        "observed_ids": tracker.observed_ids(),
        "n_observations": tracker.n_observations,
        "state": state,
    }


def column_views(tracker: columns.LossDeviationTracker, ids: List[int], parameters: np.ndarray) -> dict:
    """Everything a caller can read off the columns; locations are ``parameters[ids]``."""
    windows = []
    for size in (1, 3, 1000):
        window_ids, q_values = tracker.window(size)
        windows.append((window_ids.tolist(), parameters[window_ids], q_values))
    return {
        "q_value": [tracker.q_value(sid) for sid in ids],
        "window": windows,
        "all_q_values": tracker.all_q_values(),
        "observed_ids": tracker.observed_ids(),
        "n_observations": tracker.n_observations,
        "state": tracker.state_dict(),
    }


def as_reference_state(state: dict, registered: List[int], parameters: np.ndarray) -> dict:
    """A columns state with what the reference also keeps re-derived: a record
    for every registered id, its parameter row and its observation count."""
    records = {record["simulation_id"]: record for record in state["records"]}
    empty = {
        "last_update_order": -1,
        "timesteps": np.zeros(0, dtype=np.int64),
        "means": np.zeros(0),
        "counts": np.zeros(0, dtype=np.int64),
    }
    rebuilt = []
    for sid in registered:
        record = records.get(sid, empty)
        rebuilt.append(
            {
                "simulation_id": sid,
                "parameters": parameters[sid].copy(),
                "last_update_order": record["last_update_order"],
                "n_observations": int(record["counts"].sum()),
                "timesteps": record["timesteps"],
                "means": record["means"],
                "counts": record["counts"],
            }
        )
    return {**state, "records": rebuilt}


def losses_for(rng: np.random.Generator, size: int) -> np.ndarray:
    """Spread-out losses, or ties: small integers and, now and then, one constant."""
    kind = rng.integers(3)
    if kind == 0:
        return rng.random(size) * 10.0 ** rng.integers(-3, 3, size)
    if kind == 1:
        return rng.integers(0, 3, size).astype(np.float64)
    return np.full(size, rng.random())


@settings(max_examples=80, deadline=None)
@given(
    n_simulations=st.integers(min_value=1, max_value=12),
    n_timesteps=st.integers(min_value=1, max_value=12),
    dim=st.integers(min_value=1, max_value=4),
    n_batches=st.integers(min_value=1, max_value=40),
    swap_at=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    queue_entries=st.sampled_from([8, columns._QUEUE_ENTRIES]),
)
@example(n_simulations=4, n_timesteps=8, dim=2, n_batches=30, swap_at=12, seed=0, queue_entries=8)
def test_columns_equal_the_per_sample_reference(
    n_simulations, n_timesteps, dim, n_batches, swap_at, seed, queue_entries
):
    with mock.patch.object(columns, "_QUEUE_ENTRIES", queue_entries):  # 8: the queue grows
        drive(n_simulations, n_timesteps, dim, n_batches, swap_at, seed)


def drive(n_simulations, n_timesteps, dim, n_batches, swap_at, seed):
    rng = np.random.default_rng(seed)
    ids = list(range(n_simulations + 2))  # the last two are only ever reassigned
    #: the caller's parameters, row j for simulation j: the launcher's, in a session
    parameters = rng.random((n_simulations + 2, dim))
    # (tracker, reference?) — every side sees the same batches
    sides = [(LossDeviationTracker(), True), (columns.LossDeviationTracker(), False)]
    for sid in range(n_simulations):
        sides[0][0].register_parameters(sid, parameters[sid])

    next_read = int(rng.integers(0, 21))
    for index in range(n_batches):
        if index == swap_at:
            # a state written on either side loads into the other and goes on identically
            reference = sides[0][0]
            into_columns, into_reference = columns.LossDeviationTracker(), LossDeviationTracker()
            into_columns.load_state_dict(reference.state_dict())
            into_reference.load_state_dict(
                as_reference_state(sides[1][0].state_dict(), list(reference._records), parameters)
            )
            sides += [(into_columns, False), (into_reference, True)]

        size = int(rng.integers(1, 17))
        batch_ids = rng.integers(0, n_simulations, size)
        timesteps = rng.integers(0, n_timesteps, size)
        losses = losses_for(rng, size)
        _, _, deviations = columns.loss_deviations(losses)
        for tracker, is_reference in sides:
            if is_reference:
                tracker.observe_batch(index, batch_ids, timesteps, losses)
            else:
                tracker.observe_batch(batch_ids, timesteps, deviations)

        for _ in range(int(rng.integers(0, 3)) if rng.random() < 0.2 else 0):
            # a steered simulation: one never observed, registered or not
            observed = set(sides[0][0].observed_ids())
            sid = int(rng.integers(0, n_simulations + 2))
            if sid in observed:
                continue
            parameters[sid] = rng.random(dim)
            for tracker, is_reference in sides:
                if is_reference:
                    tracker.reassign_parameters(sid, parameters[sid])

        if index == next_read or index == n_batches - 1:
            next_read = index + 1 + int(rng.integers(0, 21))
            probe = ids + [n_simulations + 5]
            expected = reference_views(sides[0][0], probe, parameters)
            for tracker, is_reference in sides[1:]:
                views = reference_views if is_reference else column_views
                assert_same(expected, views(tracker, probe, parameters), f"batch {index}")
