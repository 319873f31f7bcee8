"""Client: one solver instance streaming its trajectory to the server.

In the real framework each client is an MPI job running the numerical solver
and pushing every produced time step to the server over the network.  Here a
client wraps a :class:`repro.solvers.base.Solver` generator and exposes
:meth:`produce`, which advances the solver by a bounded number of time steps
per call — this is what lets the simulation interleave data production with
NN training the way the asynchronous real system does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional

import numpy as np

from repro import telemetry
from repro.melissa.messages import SimulationFinished, TimeStepMessage
from repro.solvers.base import Solver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.melissa.workers import SolverWorkers

__all__ = ["SolverClient", "ClientFactory"]


class SolverClient:
    """Streams the trajectory of one parameter vector, time step by time step.

    With ``workers`` the trajectory is computed by a solver worker process,
    dispatched at :meth:`start` and read ahead into shared memory;
    :meth:`produce` then only copies rows out, in the order and with the bits
    the solver's own iterator gives.
    """

    def __init__(
        self,
        simulation_id: int,
        parameters: np.ndarray,
        solver: Solver,
        workers: Optional["SolverWorkers"] = None,
    ) -> None:
        self.simulation_id = simulation_id
        self.parameters = np.asarray(parameters, dtype=np.float64).copy()
        self.solver = solver
        self.workers = workers
        self._iterator: Optional[Iterator[np.ndarray]] = None
        self._next_timestep = 0
        self.finished = False
        #: number of time steps produced so far
        self.n_produced = 0
        self._m_steps = telemetry.metrics().counter(
            "repro_solver_steps_total", help="solver time steps produced by clients"
        )

    def start(self, skip: int = 0) -> None:
        """Open the trajectory at time step ``skip`` (a no-op once open).

        A worker starts computing right away and does the skipping itself;
        inline, the skipped fields are computed and discarded here.
        """
        if self._iterator is not None:
            return
        if self.workers is not None:
            self._iterator = self.workers.stream(self.parameters, skip)
            return
        self._iterator = self.solver.steps(self.parameters)
        for _ in range(skip):
            next(self._iterator)

    def close(self) -> None:
        """Drop the open trajectory; a worker's stream hands its ring slot back."""
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()
        self._iterator = None

    def produce(self, max_steps: int) -> List[TimeStepMessage]:
        """Produce up to ``max_steps`` further time steps of the trajectory.

        Returns the produced messages; sets :attr:`finished` when the solver
        iterator is exhausted.  Calling again after completion returns an
        empty list.
        """
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.finished:
            return []
        self.start()
        assert self._iterator is not None
        messages: List[TimeStepMessage] = []
        for _ in range(max_steps):
            try:
                payload = next(self._iterator)
            except StopIteration:
                self.finished = True
                break
            messages.append(
                TimeStepMessage(
                    simulation_id=self.simulation_id,
                    parameters=self.parameters,
                    timestep=self._next_timestep,
                    payload=payload,
                )
            )
            self._next_timestep += 1
            self.n_produced += 1
        if messages:
            self._m_steps.inc(len(messages))
        return messages

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Trajectory progress of this client (solver state is re-derived)."""
        return {
            "simulation_id": self.simulation_id,
            "parameters": self.parameters.copy(),
            "next_timestep": self._next_timestep,
            "n_produced": self.n_produced,
            "finished": self.finished,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore progress by fast-forwarding the deterministic solver.

        Solvers are pure functions of their parameter vector, so re-running
        the iterator and discarding the first ``next_timestep`` fields puts a
        fresh client into the bit-identical mid-trajectory state the snapshot
        captured, without persisting solution fields.  With solver workers the
        trajectory is re-dispatched and the worker does the discarding.
        """
        if int(state["simulation_id"]) != self.simulation_id:
            raise ValueError(
                f"client state is for simulation {state['simulation_id']}, "
                f"this client is {self.simulation_id}"
            )
        self.parameters = np.asarray(state["parameters"], dtype=np.float64).copy()
        self.finished = bool(state["finished"])
        self.n_produced = int(state["n_produced"])
        target = int(state["next_timestep"])
        self.close()
        if not self.finished:
            self.start(skip=target)
        self._next_timestep = target

    def finish_message(self) -> SimulationFinished:
        return SimulationFinished(simulation_id=self.simulation_id, n_timesteps=self.n_produced)

    @property
    def expected_timesteps(self) -> int:
        """Total number of time steps the client will produce (t = 0 .. T)."""
        return self.solver.n_timesteps + 1


@dataclass
class ClientFactory:
    """Creates a :class:`SolverClient` per started simulation job.

    A single solver instance is shared across clients: the implicit solver
    pre-factorises its linear system once, and clients only differ by their
    boundary/initial parameters, exactly like the in-house solver of the paper
    where the factorisation depends on the mesh, not on ``λ``.
    """

    solver: Solver
    created: List[int] = field(default_factory=list)
    #: solver worker processes of the owning session (None → clients step inline)
    workers: Optional["SolverWorkers"] = None

    def create(
        self, simulation_id: int, parameters: np.ndarray, state: Optional[dict] = None
    ) -> SolverClient:
        """A started client; with ``state`` (a client ``state_dict``), one resumed there."""
        self.created.append(simulation_id)
        client = SolverClient(simulation_id, parameters, self.solver, self.workers)
        if state is not None:
            client.load_state_dict(state)
        else:
            client.start()  # a worker reads ahead from now on; inline, nothing runs before produce()
        return client
