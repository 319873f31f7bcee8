"""Server: receives streamed data, trains the surrogate and steers the launcher.

The server is the heart of the Melissa DL architecture (Appendix A): it owns
the reservoir buffer, the NN and its optimizer, and — in this paper's
extension — the Breed controller that converts training-loss statistics into
steering requests.

The real server runs a receiving thread and a training thread concurrently;
here the same interleaving is reproduced cooperatively by
:class:`~repro.api.session.TrainingSession`, which alternates :meth:`receive`
and :meth:`train_iteration` calls at configurable ratios (the paper notes the
training thread "may operate more frequently than a receiving thread").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from repro import nn, telemetry
from repro.breed.controller import BreedController
from repro.melissa.launcher import Launcher
from repro.melissa.reservoir import Reservoir, ReservoirBatch
from repro.nn.tensor import Tensor
from repro.surrogate.model import DirectSurrogate
from repro.surrogate.validation import ValidationSet, start_validation_loss, validation_loss
from repro.utils.logging import EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.melissa.workers import SolverWorkers

__all__ = ["SampleStatistic", "TrainingHistory", "TrainingServer"]


@dataclass(frozen=True)
class SampleStatistic:
    """Per-sample training statistics row (the raw material of Figure 6).

    One row is recorded for every sample of every training batch:
    NN iteration ``i``, parameter index ``j``, time step ``t``, per-sample
    loss ``l^{(i)}_{jt}``, whether the sample's simulation parameters came from
    the uniform mixture, batch loss ``μ(l^{(i)})`` and the loss deviation
    ``δ^{(i)}_{jt}``.
    """

    iteration: int
    simulation_id: int
    timestep: int
    sample_loss: float
    uniform: bool
    batch_loss: float
    deviation: float


@dataclass
class TrainingHistory:
    """Loss curves and event counters accumulated during a run."""

    train_losses: List[float] = field(default_factory=list)
    train_iterations: List[int] = field(default_factory=list)
    validation_losses: List[float] = field(default_factory=list)
    validation_iterations: List[int] = field(default_factory=list)
    sample_statistics: List[SampleStatistic] = field(default_factory=list)

    def final_validation_loss(self) -> float:
        return self.validation_losses[-1] if self.validation_losses else float("nan")

    def final_train_loss(self) -> float:
        return self.train_losses[-1] if self.train_losses else float("nan")

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.asarray(self.train_iterations, dtype=np.int64),
            np.asarray(self.train_losses, dtype=np.float64),
            np.asarray(self.validation_iterations, dtype=np.int64),
            np.asarray(self.validation_losses, dtype=np.float64),
        )

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Loss curves (and optional per-sample statistics) as stacked arrays."""
        state: dict = {
            "train_losses": np.asarray(self.train_losses, dtype=np.float64),
            "train_iterations": np.asarray(self.train_iterations, dtype=np.int64),
            "validation_losses": np.asarray(self.validation_losses, dtype=np.float64),
            "validation_iterations": np.asarray(self.validation_iterations, dtype=np.int64),
            "n_sample_statistics": len(self.sample_statistics),
        }
        if self.sample_statistics:
            stats = self.sample_statistics
            state["stat_iterations"] = np.array([s.iteration for s in stats], dtype=np.int64)
            state["stat_simulation_ids"] = np.array([s.simulation_id for s in stats], dtype=np.int64)
            state["stat_timesteps"] = np.array([s.timestep for s in stats], dtype=np.int64)
            state["stat_sample_losses"] = np.array([s.sample_loss for s in stats], dtype=np.float64)
            state["stat_uniform"] = np.array([s.uniform for s in stats], dtype=np.bool_)
            state["stat_batch_losses"] = np.array([s.batch_loss for s in stats], dtype=np.float64)
            state["stat_deviations"] = np.array([s.deviation for s in stats], dtype=np.float64)
        return state

    def load_state_dict(self, state: dict) -> None:
        self.train_losses = [float(v) for v in state["train_losses"]]
        self.train_iterations = [int(v) for v in state["train_iterations"]]
        self.validation_losses = [float(v) for v in state["validation_losses"]]
        self.validation_iterations = [int(v) for v in state["validation_iterations"]]
        self.sample_statistics = []
        for index in range(int(state["n_sample_statistics"])):
            self.sample_statistics.append(
                SampleStatistic(
                    iteration=int(state["stat_iterations"][index]),
                    simulation_id=int(state["stat_simulation_ids"][index]),
                    timestep=int(state["stat_timesteps"][index]),
                    sample_loss=float(state["stat_sample_losses"][index]),
                    uniform=bool(state["stat_uniform"][index]),
                    batch_loss=float(state["stat_batch_losses"][index]),
                    deviation=float(state["stat_deviations"][index]),
                )
            )


class TrainingServer:
    """Receives data, trains the surrogate, and triggers steering."""

    def __init__(
        self,
        model: DirectSurrogate,
        optimizer: nn.Optimizer,
        reservoir: Reservoir,
        controller: BreedController,
        batch_size: int,
        validation_set: Optional[ValidationSet] = None,
        validation_period: int = 50,
        record_sample_statistics: bool = False,
        uniform_source_flags: Optional[dict[int, bool]] = None,
        event_log: Optional[EventLog] = None,
        workers: Optional["SolverWorkers"] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if validation_period < 1:
            raise ValueError("validation_period must be >= 1")
        self.model = model
        self.optimizer = optimizer
        self.reservoir = reservoir
        self.controller = controller
        self.batch_size = batch_size
        self.validation_set = validation_set
        self.validation_period = validation_period
        self.record_sample_statistics = record_sample_statistics
        #: per-simulation flag: True when its parameters came from a uniform draw
        self.uniform_source_flags = dict(uniform_source_flags or {})
        self.event_log = event_log
        #: the session's solver workers, which evaluate each validation point (None: inline)
        self.workers = workers
        #: the point the workers are evaluating: ``(iteration, poll)`` (see ``start_validation_loss``)
        self._pending: Optional[Tuple[int, Callable[[bool], Optional[float]]]] = None
        self.validation_wait_seconds = 0.0  # blocked on a pending point
        self.history = TrainingHistory()
        self.iteration = 0
        self.n_samples_received = 0
        self._tracer = telemetry.tracer()

    # ---------------------------------------------------------------- receive
    def receive(
        self, simulation_id: int, parameters: np.ndarray, first_timestep: int, rows: np.ndarray
    ) -> int:
        """Ingest a block of one simulation's time steps; returns how many rows were stored.

        Row ``i`` of ``rows`` is the field at time step ``first_timestep + i``.
        Both encodings are element-wise, so one call per block gives the bits
        one call per row gave.  Rows are stored in order while the reservoir
        accepts them; the caller keeps the rest (back-pressure).
        """
        timesteps = np.arange(first_timestep, first_timestep + len(rows), dtype=np.float64)
        x = self.model.scalers.encode_input(
            np.broadcast_to(parameters, (len(rows), parameters.shape[0])), timesteps
        )
        y = self.model.scalers.encode_output(rows)
        stored = self.reservoir.put(simulation_id, first_timestep, x, y)
        self.n_samples_received += stored
        return stored

    def mark_parameter_source(self, simulation_id: int, uniform: bool) -> None:
        """Record whether a simulation's parameters came from a uniform draw."""
        self.uniform_source_flags[simulation_id] = uniform

    # ------------------------------------------------------------------ train
    @property
    def ready(self) -> bool:
        """Training is gated on the reservoir watermark (Appendix B.1)."""
        return self.reservoir.ready_for_training

    def train_iteration(self, launcher: Optional[Launcher] = None) -> Optional[float]:
        """One optimisation step; returns the batch loss (or None if not ready)."""
        batch = self.reservoir.sample_batch(self.batch_size)
        if batch is None:
            return None
        loss_value, per_sample = self._optimize(batch)
        self.iteration += 1
        self.history.train_losses.append(loss_value)
        self.history.train_iterations.append(self.iteration)

        # Feed the per-sample losses into the steering sampler (Breed's input).
        self.controller.observe_batch(
            iteration=self.iteration,
            simulation_ids=batch.simulation_ids,
            timesteps=batch.timesteps,
            sample_losses=per_sample,
            parameters=None,
        )
        if self.record_sample_statistics:
            self._record_statistics(batch, per_sample, loss_value)

        # Periodic validation: recorded once the workers reply, or evaluated here.
        if self.validation_set is not None and self.iteration % self.validation_period == 0:
            self.finish_validation()
            with self._tracer.span("server.validation", cat="validation"):
                poll = start_validation_loss(self.model, self.validation_set, self.workers)
                if poll is None:
                    loss = validation_loss(self.model, self.validation_set)
                    poll = lambda block: loss  # recorded right below
            self._pending = self.iteration, poll
        if self._pending is not None:
            self.finish_validation(block=False)

        # Steering trigger (no-op for the Random baseline).
        if launcher is not None:
            n_steer = self.controller.n_steering_events
            self.controller.maybe_steer(self.iteration, launcher)
            if self.controller.n_steering_events != n_steer:
                self._tracer.instant("server.steering", cat="steering", iteration=self.iteration)
        return loss_value

    def _optimize(self, batch: ReservoirBatch) -> Tuple[float, np.ndarray]:
        inputs = Tensor(batch.inputs)
        targets = Tensor(batch.targets)
        self.model.zero_grad()
        prediction = self.model(inputs)
        per_sample_tensor = nn.functional.per_sample_mse(prediction, targets)
        loss = per_sample_tensor.mean()
        loss.backward()
        self.optimizer.step()
        return float(loss.item()), per_sample_tensor.data.copy()

    def _record_statistics(
        self, batch: ReservoirBatch, per_sample: np.ndarray, batch_loss: float
    ) -> None:
        std = float(per_sample.std())
        sigma = std if std > 1e-12 else 1e-12
        for sim_id, timestep, sample_loss in zip(batch.simulation_ids, batch.timesteps, per_sample):
            deviation = max(float(sample_loss) - batch_loss, 0.0) / sigma
            self.history.sample_statistics.append(
                SampleStatistic(
                    iteration=self.iteration,
                    simulation_id=int(sim_id),
                    timestep=int(timestep),
                    sample_loss=float(sample_loss),
                    uniform=self.uniform_source_flags.get(int(sim_id), True),
                    batch_loss=batch_loss,
                    deviation=deviation,
                )
            )

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Server counters, history and per-simulation provenance flags.

        The model, optimizer, reservoir and controller are snapshotted by
        their owners (see :meth:`repro.api.session.TrainingSession.state_dict`).
        A pending validation point is finished first, so the history holds it.
        """
        self.finish_validation()
        flags = sorted(self.uniform_source_flags.items())
        return {
            "iteration": self.iteration,
            "n_samples_received": self.n_samples_received,
            "uniform_flag_ids": np.array([sid for sid, _ in flags], dtype=np.int64),
            "uniform_flag_values": np.array([bool(v) for _, v in flags], dtype=np.bool_),
            "history": self.history.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.finish_validation()  # its shares are in flight: collect them, then overwrite the point
        self.iteration = int(state["iteration"])
        self.n_samples_received = int(state["n_samples_received"])
        self.uniform_source_flags = {
            int(sid): bool(value)
            for sid, value in zip(state["uniform_flag_ids"], state["uniform_flag_values"])
        }
        self.history.load_state_dict(state["history"])

    # ---------------------------------------------------------------- report
    def evaluate_validation(self) -> Optional[float]:
        """Force a validation point after the pending one (reusing a point of this same model)."""
        if self.validation_set is None:
            return None
        self.finish_validation()
        if self.history.validation_iterations[-1:] == [self.iteration]:
            val = self.history.validation_losses[-1]
        else:
            val = validation_loss(self.model, self.validation_set, workers=self.workers)
        self.history.validation_losses.append(val)
        self.history.validation_iterations.append(self.iteration)
        return val

    def finish_validation(self, block: bool = True) -> None:
        """Record the pending validation point once every share has replied (``block``: wait)."""
        if self._pending is None:
            return
        (iteration, poll), self._pending = self._pending, None  # a failed point is not polled again
        started = time.perf_counter()
        loss = poll(block)
        self.validation_wait_seconds += (time.perf_counter() - started) if block else 0.0
        if loss is None:
            self._pending = iteration, poll
            return
        self.history.validation_losses.append(loss)
        self.history.validation_iterations.append(iteration)
        if self.event_log is not None:
            self.event_log.emit("server", "validation", step=iteration, loss=loss)

    def summary(self) -> dict[str, float]:
        return {
            "iterations": float(self.iteration),
            "samples_received": float(self.n_samples_received),
            "final_train_loss": self.history.final_train_loss(),
            "final_validation_loss": self.history.final_validation_loss(),
            "steering_events": float(self.controller.n_steering_events),
            "steering_seconds": self.controller.total_steering_seconds,
            **{f"reservoir_{k}": v for k, v in self.reservoir.summary().items()},
        }
