"""The on-line training session: explicit phases over pluggable workloads.

:class:`TrainingSession` decomposes the on-line training loop into named
phases that mirror the asynchronous components of the real Melissa system:

* :meth:`submit` — the launcher keeps at most ``m`` client jobs submitted or
  running, and starts each once its scheduler start delay is over,
* :meth:`produce` — each running client streams a block of a bounded number
  of time steps per tick (volume-accounted through the transport),
* :meth:`receive` — the pending blocks' rows are encoded and stored in one
  reservoir put, as many as it accepts,
* :meth:`train` — once the reservoir watermark is reached, a configurable
  number of NN iterations run per tick; each may trigger a Breed steering,
* :meth:`should_stop` — the termination predicate.

:meth:`tick` runs one submit→produce→receive→train round, :meth:`run` loops
until termination and returns the :class:`OnlineTrainingResult`
(:func:`run_online_training` is the one-call form).

Each part records what it did in its own ledger: the launcher's columns, one
row per simulation (parameters, source, state, scheduler ticks), the
controller's :class:`~repro.breed.controller.SteeringRecord` per applied
steering, and the server's :class:`~repro.melissa.server.TrainingHistory`.
Live observers subscribe through the hook lists :attr:`on_tick`,
:attr:`on_steering` and :attr:`on_validation` instead of patching the loop,
or read the telemetry.

The session is workload-agnostic: every scenario dependency (solver, bounds,
scalers, surrogate geometry) comes from the :class:`~repro.api.workloads.Workload`
resolved from ``config.workload``.  For ``workload="heat2d"`` the training
behaviour — RNG streams, losses, executed parameters, tick counts, transport
byte/message totals — is bit-for-bit identical to the historic monolithic
loop.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.api.config import OnlineTrainingConfig
from repro.breed.controller import BreedController, SteeringRecord
from repro.breed.samplers import ParameterSource
from repro.melissa.launcher import Launcher
from repro.melissa.reservoir import Reservoir
from repro.melissa.server import TrainingHistory, TrainingServer
from repro.melissa.transport import InProcessTransport
from repro.melissa.workers import SolverWorkers, start_workers
from repro.nn.optim import Adam
from repro.solvers.base import Solver
from repro.surrogate.model import DirectSurrogate
from repro.surrogate.validation import (
    ValidationSet,
    validation_set_floats,
    validation_set_for_workload,
)
from repro.utils.heap import pin_heap
from repro.utils.rng import RngStreams

__all__ = ["OnlineTrainingResult", "TrainingSession", "run_online_training"]

#: read-ahead window of a solver worker per running client: two ticks of the
#: client's consumption (one being copied out, one computed behind it), and at
#: least enough rows that a worker sleeping on full windows is woken once per
#: several ticks rather than every tick
RING_TICKS, MIN_RING_ROWS = 2, 8

#: hook signatures (session, …) — see :meth:`TrainingSession.add_hook`
TickHook = Callable[["TrainingSession"], None]
SteeringHook = Callable[["TrainingSession", SteeringRecord], None]
ValidationHook = Callable[["TrainingSession", int, float], None]


@dataclass
class OnlineTrainingResult:
    """Everything produced by one on-line training run."""

    config: OnlineTrainingConfig
    method: str
    history: TrainingHistory
    model: DirectSurrogate
    executed_parameters: np.ndarray
    parameter_sources: List[str]
    steering_records: List[SteeringRecord]
    launcher_summary: Dict[str, int]
    reservoir_summary: Dict[str, float]
    server_summary: Dict[str, float]
    transport_bytes: int
    n_ticks: int
    steering_seconds: float
    workload: str = "heat2d"

    @property
    def final_validation_loss(self) -> float:
        """Validation MSE at the last evaluation (normalised units)."""
        return self.history.final_validation_loss()

    @property
    def final_train_loss(self) -> float:
        """Training-batch MSE at the last recorded iteration (normalised units)."""
        return self.history.final_train_loss()

    @property
    def overfit_gap(self) -> float:
        """validation − train loss at the end of the run (positive ⇒ overfitting)."""
        return self.final_validation_loss - self.final_train_loss

    def uniform_fraction(self) -> float:
        """Fraction of executed parameter vectors that came from a uniform draw."""
        if not self.parameter_sources:
            return float("nan")
        uniform = sum(s in ParameterSource.UNIFORM for s in self.parameter_sources)
        return uniform / len(self.parameter_sources)


class TrainingSession:
    """One on-line training run, decomposed into explicit phases.

    Parameters
    ----------
    config:
        The run configuration; ``config.workload`` selects the scenario.
    solver:
        Optional pre-built solver (sharing one across runs avoids re-factorising
        the implicit system when sweeping hyper-parameters).
    validation_set:
        Optional pre-built validation set (reusable across runs of a study
        since the paper keeps it fixed).
    """

    def __init__(
        self,
        config: OnlineTrainingConfig,
        solver: Optional[Solver] = None,
        validation_set: Optional[ValidationSet] = None,
    ) -> None:
        self._wall_start = time.perf_counter()
        #: wall-clock seconds of the run's segments before a restore (timing, not behaviour)
        self.earlier_wall_seconds = 0.0
        self.config = config
        self.streams = RngStreams(config.seed)
        self.workload_name = config.workload
        self.workload = config.build_workload()
        self.solver = solver if solver is not None else self.workload.build_solver()
        self.scalers = self.workload.build_scalers()

        # --- solver workers (None: this process steps the solver itself) ---
        # Forked now, while the process is small: the validation set and the
        # reservoir do not exist yet, only the shared memory they will fill —
        # or a set handed in, which the workers inherit to evaluate in place.
        # The heap is pinned first: with the evaluation gone from this process,
        # nothing else would free the large block that raises glibc's thresholds.
        pin_heap()
        self._workers: Optional[SolverWorkers] = start_workers(
            self.solver,
            array_floats=0 if validation_set is not None else validation_set_floats(
                self.solver, config.n_validation_trajectories
            ),
            ring_slots=config.job_limit,
            ring_rows=max(RING_TICKS * config.timesteps_per_tick, MIN_RING_ROWS),
            inherit=() if validation_set is None else (validation_set.inputs, validation_set.targets),
        )
        self._solver_wait_seen, self._validation_wait_seen, self._validations_seen = 0.0, 0.0, 0
        try:
            self._build(config, validation_set)
        except BaseException:
            if self._workers is not None:
                self._workers.close()
            raise

    def _build(
        self,
        config: OnlineTrainingConfig,
        validation_set: Optional[ValidationSet],
    ) -> None:
        """Everything the constructor builds once the solver (and workers) exist."""
        # --- validation set (fixed, Halton-sequence parameters) -----------
        if validation_set is None:
            validation_set = validation_set_for_workload(
                self.workload,
                config.n_validation_trajectories,
                solver=self.solver,
                workers=self._workers,
            )
        self.validation_set = validation_set

        # --- model / optimizer --------------------------------------------
        self.model = DirectSurrogate(
            self.workload.surrogate_config(
                hidden_size=config.hidden_size,
                n_hidden_layers=config.n_hidden_layers,
                activation=config.activation,
                architecture=config.architecture,
            ),
            self.scalers,
            rng=self.streams.get("model_init"),
        )
        self.optimizer = Adam(self.model.parameters(), lr=config.learning_rate)

        # --- steering ------------------------------------------------------
        self.sampler = config.build_sampler(self.workload)
        self.controller = BreedController(sampler=self.sampler, rng=self.streams.get("breed"))

        # --- framework ------------------------------------------------------
        initial_parameters = self.sampler.initial_parameters(
            config.n_simulations, self.streams.get("initial_sampling")
        )
        self.launcher = Launcher(
            initial_parameters=initial_parameters,
            solver=self.solver,
            job_limit=config.job_limit,
            rng=self.streams.get("scheduler"),
            max_start_delay=config.scheduler_max_start_delay,
            workers=self._workers,
        )
        self.reservoir = Reservoir(
            capacity=config.reservoir_capacity,
            watermark=min(config.reservoir_watermark, config.reservoir_capacity),
            rng=self.streams.get("reservoir"),
        )
        self.transport = InProcessTransport()
        self.server = TrainingServer(
            model=self.model,
            optimizer=self.optimizer,
            reservoir=self.reservoir,
            controller=self.controller,
            batch_size=config.batch_size,
            validation_set=self.validation_set,
            validation_period=config.validation_period,
            workers=self._workers,
        )

        #: produced rows not yet in the reservoir, one block per client and tick:
        #: ``(simulation_id, first_timestep, rows)``; the parameters are the launcher's row
        self.pending_blocks: Deque[Tuple[int, int, np.ndarray]] = deque()
        self.n_ticks = 0
        self._finalized = False
        self._checkpoint_policy = None  # attached lazily by run()

        # --- telemetry (observation only: no-ops unless enabled) -----------
        self._tracer = telemetry.tracer()
        registry = telemetry.metrics()
        self._m_ticks = registry.counter(
            "repro_session_ticks_total", help="submit→produce→receive→train rounds driven"
        )
        self._m_train_iters = registry.counter(
            "repro_session_train_iterations_total", help="NN training iterations completed"
        )
        self._m_steering = registry.counter(
            "repro_session_steering_total", help="Breed steering decisions applied"
        )
        self._m_validations = registry.counter(
            "repro_session_validations_total", help="validation points recorded"
        )
        self._m_solver_wait = registry.counter(
            "repro_solver_wait_seconds_total",
            help="seconds produce() waited for a solver worker's next time step",
        )
        self._m_validation_wait = registry.counter(
            "repro_validation_wait_seconds_total",
            help="seconds the training process waited for the workers' validation point",
        )
        registry.gauge(
            "repro_solver_workers", help="solver worker processes of the latest session (0: inline)"
        ).set(0 if self._workers is None else self._workers.n_workers)

        # --- hooks ----------------------------------------------------------
        #: called after every completed tick with the session
        self.on_tick: List[TickHook] = []
        #: called with every new :class:`SteeringRecord` as it is applied
        self.on_steering: List[SteeringHook] = []
        #: called with ``(session, iteration, loss)`` for every validation point when it is
        #: recorded: ticks later if the solver workers evaluate it, in inline order and values
        self.on_validation: List[ValidationHook] = []

    # ----------------------------------------------------------------- hooks
    def add_hook(self, event: str, callback: Callable) -> Callable:
        """Subscribe ``callback`` to ``"tick"``, ``"steering"`` or ``"validation"``."""
        hooks = {"tick": self.on_tick, "steering": self.on_steering, "validation": self.on_validation}
        if event not in hooks:
            raise KeyError(f"unknown hook event {event!r}; available: {sorted(hooks)}")
        hooks[event].append(callback)
        return callback

    def _report_validations(self) -> None:
        """Count the validation points recorded since the last call and hand them to the hooks."""
        history = self.server.history
        seen, self._validations_seen = self._validations_seen, len(history.validation_losses)
        if self._validations_seen > seen:
            self._m_validations.inc(self._validations_seen - seen)
        for index in range(seen, self._validations_seen):
            for hook in self.on_validation:
                hook(self, history.validation_iterations[index], history.validation_losses[index])

    def _count_validation_wait(self) -> None:
        waited = self.server.validation_wait_seconds
        self._m_validation_wait.inc(waited - self._validation_wait_seen)
        self._validation_wait_seen = waited

    def _fire_steering(self, since: int) -> None:
        for record in self.controller.records[since:]:
            for hook in self.on_steering:
                hook(self, record)

    # ---------------------------------------------------------------- phases
    def submit(self) -> List[int]:
        """Phase 1 — submit up to the job limit; start the jobs whose delay is over."""
        self.launcher.submit_available()
        return [client.simulation_id for client in self.launcher.advance()]

    def produce(self) -> int:
        """Phase 2 — each running client streams a few time steps; returns count."""
        produced = 0
        if not self.reservoir.can_accept():
            return produced
        for client in self.launcher.running_clients():
            first_timestep = client.n_produced
            rows = client.produce(self.config.timesteps_per_tick)
            if len(rows):
                self.transport.account_batch(rows, client.parameters)
                self.pending_blocks.append((client.simulation_id, first_timestep, rows))
                produced += len(rows)
            if client.finished:
                self.launcher.mark_finished(client.simulation_id)
        if self._workers is not None:
            waited = self._workers.wait_seconds
            self._m_solver_wait.inc(waited - self._solver_wait_seen)
            self._solver_wait_seen = waited
        return produced

    def receive(self) -> int:
        """Phase 3 — hand the pending blocks to the server at once; the rows it stores leave them."""
        blocks = self.pending_blocks
        if not blocks:
            return 0
        parameters = self.launcher.parameters
        received = self.server.receive(blocks, (parameters[simulation_id] for simulation_id, *_ in blocks))
        left = received
        while left and left >= len(blocks[0][2]):
            left -= len(blocks.popleft()[2])
        if left:  # the reservoir is full of unseen samples
            simulation_id, first_timestep, rows = blocks[0]
            blocks[0] = (simulation_id, first_timestep + left, rows[left:])
        return received

    def train(self) -> List[float]:
        """Phase 4 — NN iterations for this tick (empty before the watermark)."""
        losses: List[float] = []
        if not self.server.ready:
            return losses
        iters_before = self.server.iteration
        steerings_before = len(self.controller.records)
        for _ in range(self.config.train_iterations_per_tick):
            if self.server.iteration >= self.config.max_iterations:
                break
            n_steering = len(self.controller.records)
            loss = self.server.train_iteration(self.launcher)
            if loss is not None:
                losses.append(loss)
            self._report_validations()
            if self.on_steering:
                self._fire_steering(n_steering)
        # Counter mirrors as end-of-phase deltas: one float add per series
        # per tick instead of per iteration.
        if self.server.iteration > iters_before:
            self._m_train_iters.inc(self.server.iteration - iters_before)
        self._count_validation_wait()
        new_steerings = len(self.controller.records) - steerings_before
        if new_steerings:
            self._m_steering.inc(new_steerings)
        return losses

    def should_stop(self) -> bool:
        """Phase 5 — termination: iteration budget reached, or data starved."""
        if self.server.iteration >= self.config.max_iterations:
            return True
        if self.launcher.all_finished and not self.pending_blocks and not self.server.ready:
            # Not enough data was ever produced to reach the watermark.
            return True
        return False

    # --------------------------------------------------------------- driving
    def tick(self) -> bool:
        """Run one submit→produce→receive→train round; False when done."""
        self.n_ticks += 1
        self._m_ticks.inc()
        # One span per round keeps tracing inside the ≤2 % overhead budget
        # (docs/OBSERVABILITY.md); validation/steering/checkpoint events are
        # emitted at their own seams where they actually happen.
        with self._tracer.span("session.tick", cat="session"):
            self.submit()
            self.produce()
            self.receive()
            self.train()
            for hook in self.on_tick:
                hook(self)
        return not self.should_stop()

    def run(self) -> OnlineTrainingResult:
        """Drive ticks until termination and return the collected result."""
        try:
            self._ensure_checkpoint_policy()
            while self.n_ticks < self.config.max_ticks:
                # A session restored from a snapshot taken at the run's final tick
                # is already terminated; ticking it again would advance counters
                # past the uninterrupted run's values.  (Always false mid-loop:
                # tick() breaks out the moment should_stop() first turns true.)
                if self.should_stop():
                    break
                if not self.tick():
                    break
            result = self.result()
        except BaseException:
            if self._workers is not None:
                self._workers.close()  # a failed run's pending point is not awaited
            raise
        self.close()
        self._tracer.flush()
        return result

    def close(self) -> None:
        """Finish a pending validation point, then kill and reap the solver workers (idempotent).

        :meth:`run` closes on every exit; a session driven tick by tick should
        be closed by its driver.  A closed session can still report
        :meth:`result` and :meth:`state_dict`, but no longer :meth:`produce`.
        """
        try:
            self.server.finish_validation()
        finally:
            if self._workers is not None:
                self._workers.close()

    def _ensure_checkpoint_policy(self) -> None:
        """Attach the configured periodic snapshot policy (once)."""
        if self._checkpoint_policy is not None:
            return
        if self.config.checkpoint_every <= 0 or not self.config.checkpoint_dir:
            return
        # Imported lazily: repro.checkpoint builds on this module.
        from repro.checkpoint.policy import CheckpointPolicy

        self._checkpoint_policy = CheckpointPolicy(
            directory=self.config.checkpoint_dir,
            every_n_batches=self.config.checkpoint_every,
            keep=self.config.checkpoint_keep,
            compressed=self.config.checkpoint_compressed,
        ).attach(self)

    @property
    def wall_seconds(self) -> float:
        """Wall-clock seconds the run has taken, summed over every segment a restore resumed."""
        return self.earlier_wall_seconds + time.perf_counter() - self._wall_start

    # ---------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, object]:
        """Everything the training loop owns, as one nested state tree.

        The tree contains only JSON-compatible scalars/containers and numpy
        arrays that later ticks leave untouched, so the tree can be kept in
        memory and loaded back.  The arrays are copies, except the
        reservoir's rows: read-only views of its live buffer, which the
        reservoir copies before writing while any of them is alive.
        :func:`repro.checkpoint.save_session` splits the tree into an
        ``arrays.npz`` + JSON manifest snapshot, writing the rows straight
        from the buffer.  Static run inputs — the
        workload, solver factorisation and Halton validation set — are
        deterministic functions of the configuration and are rebuilt on
        restore instead of being persisted.
        """
        blocks = self.pending_blocks
        n_pending = sum(len(rows) for *_, rows in blocks)
        state: Dict[str, object] = {
            "n_ticks": self.n_ticks,
            "finalized": self._finalized,
            "streams": self.streams.state_dict(),
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "controller": self.controller.state_dict(),
            **self.launcher.state_dict(),  # the "launcher" subtree
            "reservoir": self.reservoir.state_dict(),
            "transport": self.transport.state_dict(),
            "server": self.server.state_dict(),
            # one entry per pending row (time step), the layout the snapshots have always had
            "n_pending_messages": n_pending,
            # measurement, like the controller's steering total: carried over so
            # a resumed run's steering share covers the same span as its wall time
            "wall_seconds": self.wall_seconds,
        }
        if n_pending:
            state["pending_simulation_ids"] = np.concatenate(
                [np.full(len(rows), sid, dtype=np.int64) for sid, _, rows in blocks]
            )
            state["pending_timesteps"] = np.concatenate(
                [np.arange(first, first + len(rows), dtype=np.int64) for _, first, rows in blocks]
            )
            state["pending_payloads"] = np.concatenate([rows for *_, rows in blocks])
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a freshly constructed session to a snapshotted state.

        The constructor has already rebuilt every component from the
        configuration (drawing initialisation randomness in the process);
        loading overwrites all mutable state — including the RNG stream
        states, in place, so components sharing a generator stay aliased —
        which makes the restored session bit-identical to the saved one.
        Older snapshots also carry ``"pending_parameters"`` (the pending
        rows' copy of their launcher parameters); it is ignored.
        """
        self.streams.load_state_dict(state["streams"])  # type: ignore[arg-type]
        self.model.load_state_dict(state["model"])  # type: ignore[arg-type]
        self.optimizer.load_state_dict(state["optimizer"])  # type: ignore[arg-type]
        self.controller.load_state_dict(state["controller"])  # type: ignore[arg-type]
        self.launcher.load_state_dict(state)
        self.reservoir.load_state_dict(state["reservoir"])  # type: ignore[arg-type]
        self.transport.load_state_dict(state["transport"])  # type: ignore[arg-type]
        self.server.load_state_dict(state["server"])  # type: ignore[arg-type]
        self._validations_seen = len(self.server.history.validation_losses)  # reported before the save
        self.pending_blocks = deque()
        n_pending = int(state["n_pending_messages"])  # type: ignore[arg-type]
        if n_pending:
            ids = np.asarray(state["pending_simulation_ids"], dtype=np.int64)
            timesteps = np.asarray(state["pending_timesteps"], dtype=np.int64)
            payloads = np.asarray(state["pending_payloads"], dtype=np.float64)
            # A simulation's adjacent pending rows are consecutive time steps:
            # each run of one id becomes one block again.
            cuts = np.flatnonzero(np.diff(ids) != 0) + 1
            for start, stop in zip([0, *cuts], [*cuts, n_pending]):
                self.pending_blocks.append((int(ids[start]), int(timesteps[start]), payloads[start:stop]))
        self.n_ticks = int(state["n_ticks"])  # type: ignore[arg-type]
        self._finalized = bool(state["finalized"])
        # absent from snapshots written before it was kept
        self.earlier_wall_seconds = float(state.get("wall_seconds", 0.0))  # type: ignore[arg-type]

    # ---------------------------------------------------------------- result
    def result(self) -> OnlineTrainingResult:
        """Finalise (the pending, then one last validation point) and package the run's output."""
        self.server.finish_validation()
        if not self._finalized:
            self._finalized = True
            if self.validation_set is not None:
                with self._tracer.span("session.final_validation", cat="session"):
                    self.server.evaluate_validation()
            # Ingest mirrors are draw-time synced; flush the tail so the
            # registry matches the canonical totals at run completion.
            self.reservoir.sync_metrics()
        self._report_validations()
        self._count_validation_wait()
        executed_parameters, sources = self.launcher.executed_parameters()
        return OnlineTrainingResult(
            config=self.config,
            method=self.sampler.name,
            history=self.server.history,
            model=self.model,
            executed_parameters=executed_parameters.copy(),
            parameter_sources=sources,
            steering_records=list(self.controller.records),
            launcher_summary=self.launcher.summary(),
            reservoir_summary=self.reservoir.summary(),
            server_summary=self.server.summary(),
            transport_bytes=self.transport.n_bytes,
            n_ticks=self.n_ticks,
            steering_seconds=self.controller.steering_seconds,
            workload=self.workload_name,
        )


def run_online_training(
    config: OnlineTrainingConfig,
    solver: Optional[Solver] = None,
    validation_set: Optional[ValidationSet] = None,
) -> OnlineTrainingResult:
    """Run one complete on-line training experiment and return its results.

    ``solver`` / ``validation_set`` are optional pre-built run inputs —
    sharing them across the runs of a study avoids re-factorising the
    implicit system and rebuilding the fixed validation set per run.
    """
    return TrainingSession(config, solver=solver, validation_set=validation_set).run()
