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

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro import nn, telemetry
from repro.breed.controller import BreedController
from repro.melissa.launcher import Launcher
from repro.melissa.messages import TimeStepMessage
from repro.melissa.reservoir import Reservoir, ReservoirBatch
from repro.nn.tensor import Tensor
from repro.surrogate.model import DirectSurrogate
from repro.surrogate.validation import ValidationSet, validation_loss
from repro.utils.logging import EventLog
from repro.utils.timer import TimerRegistry

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
        self.history = TrainingHistory()
        self.timers = TimerRegistry()
        self.iteration = 0
        self.n_samples_received = 0
        self._tracer = telemetry.tracer()

    # ---------------------------------------------------------------- receive
    def receive(self, message: TimeStepMessage) -> bool:
        """Ingest one streamed time step; returns False when back-pressured."""
        with self.timers.span("receive"):
            x = self.model.scalers.encode_input(message.parameters, message.timestep)
            y = self.model.scalers.encode_output(message.payload)
            accepted = self.reservoir.put(
                simulation_id=int(message.simulation_id or 0),
                timestep=message.timestep,
                x=x,
                y=y,
            )
        if accepted:
            self.n_samples_received += 1
        return accepted

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
        with self.timers.span("train"):
            loss_value, per_sample = self._optimize(batch)
        self.iteration += 1
        self.history.train_losses.append(loss_value)
        self.history.train_iterations.append(self.iteration)

        # Feed the per-sample losses into the steering sampler (Breed's input).
        with self.timers.span("acquisition"):
            self.controller.observe_batch(
                iteration=self.iteration,
                simulation_ids=batch.simulation_ids,
                timesteps=batch.timesteps,
                sample_losses=per_sample,
                parameters=None,
            )
        if self.record_sample_statistics:
            self._record_statistics(batch, per_sample, loss_value)

        # Periodic validation.
        if self.validation_set is not None and self.iteration % self.validation_period == 0:
            with self.timers.span("validation"), self._tracer.span(
                "server.validation", cat="validation"
            ):
                val = validation_loss(self.model, self.validation_set)
            self.history.validation_losses.append(val)
            self.history.validation_iterations.append(self.iteration)
            if self.event_log is not None:
                self.event_log.emit("server", "validation", step=self.iteration, loss=val)

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
        their owners (see :meth:`repro.api.session.TrainingSession.state_dict`);
        wall-clock phase timers are measurement, not state, and restart at
        zero after a restore.
        """
        flags = sorted(self.uniform_source_flags.items())
        return {
            "iteration": self.iteration,
            "n_samples_received": self.n_samples_received,
            "uniform_flag_ids": np.array([sid for sid, _ in flags], dtype=np.int64),
            "uniform_flag_values": np.array([bool(v) for _, v in flags], dtype=np.bool_),
            "history": self.history.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.iteration = int(state["iteration"])
        self.n_samples_received = int(state["n_samples_received"])
        self.uniform_source_flags = {
            int(sid): bool(value)
            for sid, value in zip(state["uniform_flag_ids"], state["uniform_flag_values"])
        }
        self.history.load_state_dict(state["history"])

    # ---------------------------------------------------------------- report
    def evaluate_validation(self) -> Optional[float]:
        """Force a validation evaluation outside the periodic schedule."""
        if self.validation_set is None:
            return None
        val = validation_loss(self.model, self.validation_set)
        self.history.validation_losses.append(val)
        self.history.validation_iterations.append(self.iteration)
        return val

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
