"""Client: one solver instance streaming its trajectory to the server.

In the real framework each client is an MPI job running the numerical solver
and pushing every produced time step to the server over the network.  Here a
client wraps a :class:`repro.solvers.base.Solver` generator and exposes
:meth:`produce`, which advances the solver by a bounded number of time steps
per call — this is what lets the simulation interleave data production with
NN training the way the asynchronous real system does.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Iterator, Optional, Union

import numpy as np

from repro import telemetry
from repro.solvers.base import Solver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.melissa.workers import RingStream, SolverWorkers

__all__ = ["SolverClient"]


class SolverClient:
    """Streams the trajectory of one parameter vector, a block of time steps at a time.

    With ``workers`` the trajectory is computed by a solver worker process,
    dispatched at :meth:`start` and read ahead into shared memory;
    :meth:`produce` then only copies rows out, in the order and with the bits
    the solver's own iterator gives.  ``parameters`` is the launcher record's
    array, held, not copied: only a pending simulation's parameters change,
    and a pending simulation has no client.
    """

    def __init__(
        self,
        simulation_id: int,
        parameters: np.ndarray,
        solver: Solver,
        workers: Optional["SolverWorkers"] = None,
    ) -> None:
        self.simulation_id = simulation_id
        self.parameters = parameters
        self.solver = solver
        self.workers = workers
        #: the open trajectory: the solver's iterator inline, a ring stream on a worker
        self._rows: Optional[Union[Iterator[np.ndarray], "RingStream"]] = None
        self.finished = False
        #: number of time steps produced so far (the next one's index)
        self.n_produced = 0
        self._m_steps = telemetry.metrics().counter(
            "repro_solver_steps_total", help="solver time steps produced by clients"
        )

    def start(self, skip: int = 0) -> None:
        """Open the trajectory at time step ``skip`` (a no-op once open).

        A worker starts computing right away and does the skipping itself;
        inline, the skipped fields are computed and discarded by the first
        :meth:`produce`.
        """
        if self._rows is not None:
            return
        if self.workers is not None:
            self._rows = self.workers.stream(self.parameters, skip)
        else:
            self._rows = islice(self.solver.steps(self.parameters), skip, None)

    def close(self) -> None:
        """Drop the open trajectory; a worker's stream hands its ring slot back."""
        close = getattr(self._rows, "close", None)
        if close is not None:
            close()
        self._rows = None

    def produce(self, max_steps: int) -> np.ndarray:
        """The next up to ``max_steps`` fields of the trajectory, one row each.

        Row ``i`` of the ``(k, field_size)`` block is time step
        ``n_produced + i`` as counted before the call.  A block shorter than
        ``max_steps`` means the trajectory ended, and sets :attr:`finished`;
        calling again after that returns an empty block.
        """
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.finished:
            return np.empty((0, self.solver.field_size))
        self.start()
        block = np.empty((max_steps, self.solver.field_size))
        if self.workers is not None:
            n = self._rows.read(block)  # type: ignore[union-attr]
        else:
            n = 0
            for row in islice(self._rows, max_steps):  # type: ignore[arg-type]
                block[n] = row
                n += 1
        if n < max_steps:
            self.finished = True
        if n:
            self.n_produced += n
            self._m_steps.inc(n)
        return block[:n]

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Trajectory progress of this client (solver state is re-derived)."""
        return {"n_produced": self.n_produced, "finished": self.finished}

    def load_state_dict(self, state: dict) -> None:
        """Restore progress by fast-forwarding the deterministic solver.

        Solvers are pure functions of their parameter vector, so re-running
        the iterator and discarding the first ``n_produced`` fields puts a
        fresh client into the bit-identical mid-trajectory state the snapshot
        captured, without persisting solution fields.  With solver workers the
        trajectory is re-dispatched and the worker does the discarding.
        Snapshots of schema 3 and older also carry the client's
        ``simulation_id``, a copy of its ``parameters`` and ``next_timestep``
        (always ``n_produced``); they are ignored.
        """
        self.finished = bool(state["finished"])
        self.n_produced = int(state["n_produced"])
        self.close()
        if not self.finished:
            self.start(skip=self.n_produced)

    @property
    def expected_timesteps(self) -> int:
        """Total number of time steps the client will produce (t = 0 .. T)."""
        return self.solver.n_timesteps + 1

