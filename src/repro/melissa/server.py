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
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro import nn, telemetry
from repro.breed.acquisition import loss_deviations
from repro.breed.controller import BreedController
from repro.melissa.launcher import Launcher
from repro.melissa.reservoir import Reservoir, ReservoirBatch
from repro.nn.tensor import Tensor
from repro.surrogate.model import DirectSurrogate
from repro.surrogate.validation import ValidationSet, start_validation_loss, validation_loss

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.melissa.workers import SolverWorkers

__all__ = ["SAMPLE_STATISTICS", "TrainingHistory", "TrainingServer"]

#: one row per sample of every training batch, the raw material of Figure 6:
#: NN iteration ``i``, parameter index ``j``, time step ``t``, per-sample loss
#: ``l^{(i)}_{jt}``, whether the sample's simulation parameters came from the
#: uniform mixture, batch loss ``μ(l^{(i)})`` and the loss deviation ``δ^{(i)}_{jt}``;
#: each column with the snapshot key it is stored under
_STATISTIC_COLUMNS = (
    ("iteration", np.int64, "stat_iterations"),
    ("simulation_id", np.int64, "stat_simulation_ids"),
    ("timestep", np.int64, "stat_timesteps"),
    ("sample_loss", np.float64, "stat_sample_losses"),
    ("uniform", np.bool_, "stat_uniform"),
    ("batch_loss", np.float64, "stat_batch_losses"),
    ("deviation", np.float64, "stat_deviations"),
)
SAMPLE_STATISTICS = np.dtype([(name, dtype) for name, dtype, _ in _STATISTIC_COLUMNS])

#: rows per statistics chunk, 49 MiB of address space: above glibc's largest
#: mmap threshold, so a chunk is a mapping of its own whose pages become
#: resident only as rows are written.  One small block per batch would instead
#: split the heap the training step's temporaries reuse (+9 MB peak RSS on the
#: benchmark's four-run study grid).
_CHUNK_ROWS = 1 << 20

#: produced rows of one simulation: ``(simulation_id, first_timestep, rows)``
Block = Tuple[int, int, np.ndarray]


@dataclass
class TrainingHistory:
    """Loss curves, event counters and per-sample statistics accumulated during a run."""

    train_losses: List[float] = field(default_factory=list)
    train_iterations: List[int] = field(default_factory=list)
    validation_losses: List[float] = field(default_factory=list)
    validation_iterations: List[int] = field(default_factory=list)
    #: :data:`SAMPLE_STATISTICS` chunks (read :attr:`sample_statistics`); all
    #: but the last are full, and the last holds ``_filled`` rows
    statistic_chunks: List[np.ndarray] = field(default_factory=list, repr=False, compare=False)
    _filled: int = field(default=0, repr=False, compare=False)

    def new_statistics(self, n: int) -> np.ndarray:
        """The next ``n`` rows of :attr:`sample_statistics`, for the caller to fill."""
        chunks = self.statistic_chunks
        if not chunks or self._filled + n > len(chunks[-1]):
            if chunks:
                chunks[-1] = chunks[-1][: self._filled]
            chunks.append(np.empty(max(n, _CHUNK_ROWS), SAMPLE_STATISTICS))
            self._filled = 0
        self._filled += n
        return chunks[-1][self._filled - n : self._filled]

    @property
    def sample_statistics(self) -> np.recarray:
        """Every recorded statistics row in recording order (``row.iteration`` …).

        More rows than one chunk holds are merged once, replacing the chunks."""
        if len(self.statistic_chunks) > 1:
            merged = np.concatenate([*self.statistic_chunks[:-1], self.statistic_chunks[-1][: self._filled]])
            self.statistic_chunks, self._filled = [merged], len(merged)
        rows = self.statistic_chunks[0] if self.statistic_chunks else np.empty(0, SAMPLE_STATISTICS)
        return rows[: self._filled].view(np.recarray)

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
        """Loss curves and the per-sample statistics, one rank-1 array per column."""
        rows = self.sample_statistics
        state: dict = {
            "train_losses": np.asarray(self.train_losses, dtype=np.float64),
            "train_iterations": np.asarray(self.train_iterations, dtype=np.int64),
            "validation_losses": np.asarray(self.validation_losses, dtype=np.float64),
            "validation_iterations": np.asarray(self.validation_iterations, dtype=np.int64),
            "n_sample_statistics": len(rows),
        }
        if len(rows):
            state.update({key: rows[name] for name, _, key in _STATISTIC_COLUMNS})
        return state

    def load_state_dict(self, state: dict) -> None:
        self.train_losses = [float(v) for v in state["train_losses"]]
        self.train_iterations = [int(v) for v in state["train_iterations"]]
        self.validation_losses = [float(v) for v in state["validation_losses"]]
        self.validation_iterations = [int(v) for v in state["validation_iterations"]]
        self.statistic_chunks, self._filled = [], 0
        rows = self.new_statistics(int(state["n_sample_statistics"]))
        for name, _, key in _STATISTIC_COLUMNS:
            rows[name] = state.get(key, ())  # no keys when no rows


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
        #: the session's solver workers, which evaluate each validation point (None: inline)
        self.workers = workers
        #: the point the workers are evaluating: ``(iteration, poll)`` (see ``start_validation_loss``)
        self._pending: Optional[Tuple[int, Callable[[bool], Optional[float]]]] = None
        self.validation_wait_seconds = 0.0  # blocked on a pending point
        self.history = TrainingHistory()
        self.iteration = 0
        self._tracer = telemetry.tracer()

    # ---------------------------------------------------------------- receive
    def receive(self, blocks: Iterable[Block], parameters: Iterable[np.ndarray]) -> int:
        """Ingest the leading rows of ``blocks`` the reservoir takes, in one put; returns how many.

        Block ``(simulation_id, first_timestep, rows)`` holds the fields of
        time steps ``first_timestep, first_timestep + 1, …`` of the simulation
        whose parameters are the matching entry of ``parameters``.  Only the
        rows the reservoir will store (its :attr:`~Reservoir.room`) are
        encoded; the caller keeps the rest (back-pressure).  Both encodings
        are element-wise: a row's bits do not depend on the rows encoded with it.
        """
        room = self.reservoir.room
        taken = []  # (simulation id, first time step, parameters, rows) of the rows to store
        n = 0
        for (simulation_id, first_timestep, rows), vector in zip(blocks, parameters):
            if n == room:
                break
            rows = rows[: room - n]
            taken.append((simulation_id, first_timestep, vector, rows))
            n += len(rows)
        if n == 0:
            return 0
        ids, firsts, vectors, fields = zip(*taken)
        lengths = np.array([len(rows) for rows in fields])
        # the k-th row of a block is time step first + k
        timesteps = np.arange(n) + np.repeat(np.array(firsts) - (np.cumsum(lengths) - lengths), lengths)
        scalers = self.model.scalers
        x = scalers.encode_input(np.repeat(np.array(vectors), lengths, axis=0), timesteps)
        y = scalers.encode_output_blocks(fields, out=np.empty((n, *fields[0].shape[1:])))
        return self.reservoir.put(np.repeat(ids, lengths), timesteps, x, y)

    # ------------------------------------------------------------------ train
    @property
    def ready(self) -> bool:
        """Training is gated on the reservoir watermark (Appendix B.1)."""
        return self.reservoir.ready_for_training

    def train_iteration(self, launcher: Optional[Launcher] = None) -> Optional[float]:
        """One optimisation step; returns the batch loss (or None if not ready).

        ``launcher`` is steered and says which samples' simulations had
        uniform-drawn parameters; without one, every row counts as uniform.
        """
        batch = self.reservoir.sample_batch(self.batch_size)
        if batch is None:
            return None
        loss_value, per_sample = self._optimize(batch)
        self.iteration += 1
        self.history.train_losses.append(loss_value)
        self.history.train_iterations.append(self.iteration)

        # Eq. 4 once: the deviations are Breed's input and the Figure-6 column.
        _, _, deviations = loss_deviations(per_sample)
        self.controller.observe_batch(batch.simulation_ids, batch.timesteps, deviations)
        # The batch's Figure-6 rows (analysis only: training never reads them).
        rows = self.history.new_statistics(len(per_sample))
        rows["iteration"] = self.iteration
        rows["simulation_id"] = batch.simulation_ids
        rows["timestep"] = batch.timesteps
        rows["sample_loss"] = per_sample
        rows["uniform"] = True if launcher is None else launcher.from_uniform(batch.simulation_ids)
        rows["batch_loss"] = loss_value
        rows["deviation"] = deviations

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
        if launcher is not None and self.controller.maybe_steer(self.iteration, launcher) is not None:
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

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """The iteration counter and the history.

        The model, optimizer, reservoir and controller are snapshotted by
        their owners (see :meth:`repro.api.session.TrainingSession.state_dict`).
        A pending validation point is finished first, so the history holds it.
        """
        self.finish_validation()
        return {"iteration": self.iteration, "history": self.history.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output.

        Older snapshots also carry ``"n_samples_received"`` (the reservoir's
        count) and ``"uniform_flag_ids"``/``"uniform_flag_values"`` (the
        launcher's provenance); they are ignored.
        """
        self.finish_validation()  # its shares are in flight: collect them, then overwrite the point
        self.iteration = int(state["iteration"])
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

    def summary(self) -> dict[str, float]:
        return {
            "iterations": float(self.iteration),
            "samples_received": float(self.reservoir.n_received),
            "final_train_loss": self.history.final_train_loss(),
            "final_validation_loss": self.history.final_validation_loss(),
            "steering_events": float(len(self.controller.records)),
            "steering_seconds": self.controller.steering_seconds,
            **{f"reservoir_{k}": v for k, v in self.reservoir.summary().items()},
        }
