"""Client: one solver instance streaming its trajectory to the server.

In the real framework each client is an MPI job pushing every time step its
solver produces to the server.  Here :meth:`SolverClient.produce` advances a
:class:`repro.solvers.base.Solver` by a bounded number of time steps per call,
which interleaves data production with NN training as the real system does.
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

    With ``workers`` a solver worker process computes the trajectory from
    :meth:`start` on, reading ahead into shared memory; :meth:`produce` copies
    its rows out, with the bits the solver's own iterator gives.
    ``parameters`` is the simulation's launcher row, held, not copied.
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

    def start(self) -> None:
        """Open the trajectory at time step :attr:`n_produced` (a no-op once open).

        A worker starts computing right away and skips itself; inline, the
        first :meth:`produce` computes and discards the skipped fields.  A
        solver is a pure function of its parameters, so a fresh client whose
        ``n_produced`` is set before it starts resumes a snapshot's exactly.
        """
        if self._rows is not None:
            return
        if self.workers is not None:
            self._rows = self.workers.stream(self.parameters, self.n_produced)
        else:
            self._rows = islice(self.solver.steps(self.parameters), self.n_produced, None)

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
