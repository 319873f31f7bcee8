"""Launcher: the one ledger of every simulation, from pending to finished.

Responsibilities reproduced from the paper (Section 2.2, 3.3 and Appendix A):

* hold the full budget of ``S`` simulations and their input parameters,
* submit client jobs in id order while respecting the job limit ``m`` (only
  a subset of all clients is ever submitted at once),
* play the batch scheduler (OAR on the real cluster): a submitted job waits a
  random number of ticks, bounded by ``max_start_delay``, before it may start
  ("the inherent uncertainty of the batch scheduler", Section 3.3), so jobs
  can start in another order than they were submitted in,
* start a :class:`SolverClient` for every started simulation; one solver is
  shared by all of them, as the paper's solver factorises its system once per
  mesh, not per ``λ``,
* report which simulations are *steerable*: the server must only replace the
  parameters of simulations whose ids are at least ``k + m`` where ``k`` is
  the highest simulation id already submitted — anything closer may already
  have been handed to the scheduler and could start at any moment,
* apply :meth:`update_parameters` requests coming from the server's steering
  mechanism and remember the provenance of every parameter vector (needed by
  the Figure 4 analysis and the Figure 6 ``uniform`` column).

A record is the only store of its simulation's parameters and provenance:
the session reads a pending block's parameters from it, the server each
training sample's provenance, Breed's AMIS window its locations, and a
started simulation's client holds the record's array itself.  Both are fixed
once the simulation starts, as only pending simulations are steered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.breed.samplers import ParameterSource
from repro.melissa.client import SolverClient
from repro.solvers.base import Solver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.melissa.workers import SolverWorkers

__all__ = ["SimulationState", "SimulationRecord", "Launcher"]


class SimulationState(enum.Enum):
    """Lifecycle of one simulation in the launcher's ledger."""

    PENDING = "pending"        # not yet submitted to the scheduler: steerable
    SUBMITTED = "submitted"    # handed to the scheduler, waiting to start
    RUNNING = "running"        # client job producing time steps
    FINISHED = "finished"      # full trajectory streamed


#: the scheduler's name of each submitted state, as the ``"scheduler"`` subtree writes it
JOB_STATES = {
    SimulationState.SUBMITTED: "queued",
    SimulationState.RUNNING: "running",
    SimulationState.FINISHED: "completed",
}


@dataclass
class SimulationRecord:
    """Ledger entry of one simulation of the budget."""

    simulation_id: int
    parameters: np.ndarray
    source: str = ParameterSource.INITIAL_UNIFORM
    state: SimulationState = SimulationState.PENDING
    client: Optional[SolverClient] = None
    #: sources of the steering overwrites, most recent last
    history: List[str] = field(default_factory=list)
    #: scheduler ticks of the job: submitted at, may start from, started at,
    #: completed at (None until it happens)
    submitted_tick: Optional[int] = None
    eligible_tick: Optional[int] = None
    started_tick: Optional[int] = None
    completed_tick: Optional[int] = None

    def __post_init__(self) -> None:
        self.parameters = np.asarray(self.parameters, dtype=np.float64).copy()

    @property
    def n_updates(self) -> int:
        """Number of times steering replaced this simulation's parameters."""
        return len(self.history)


def _optional_int(value: object) -> Optional[int]:
    return None if value is None else int(value)  # type: ignore[call-overload]


class Launcher:
    """Simulation-budget manager: submits, starts and steers the ``S`` simulations.

    ``rng`` draws each submission's start delay; ``workers`` are the owning
    session's solver worker processes (None: clients step the solver inline).
    """

    def __init__(
        self,
        initial_parameters: np.ndarray,
        solver: Solver,
        job_limit: int,
        rng: np.random.Generator,
        max_start_delay: int = 0,
        workers: Optional["SolverWorkers"] = None,
    ) -> None:
        if job_limit < 1:
            raise ValueError("job_limit must be >= 1")
        if max_start_delay < 0:
            raise ValueError("max_start_delay must be non-negative")
        parameters = np.atleast_2d(np.asarray(initial_parameters, dtype=np.float64))
        if parameters.shape[0] == 0:
            raise ValueError("the simulation budget must contain at least one simulation")
        self.records: Dict[int, SimulationRecord] = {
            sim_id: SimulationRecord(simulation_id=sim_id, parameters=row)
            for sim_id, row in enumerate(parameters)
        }
        self.solver = solver
        #: maximum number of simultaneously submitted or running clients ``m``
        self.job_limit = job_limit
        self.max_start_delay = max_start_delay
        self._rng = rng
        self.workers = workers
        #: scheduler ticks advanced so far
        self.tick = 0
        #: submission order is by increasing simulation id, as in Melissa
        self.next_to_submit = 0

    # ---------------------------------------------------------------- sizes
    @property
    def budget(self) -> int:
        """Total number of simulations ``S``."""
        return len(self.records)

    @property
    def highest_submitted_id(self) -> int:
        """The ``k`` of the steering rule: the newest submitted id (-1 before any)."""
        return self.next_to_submit - 1

    def count_state(self, state: SimulationState) -> int:
        return sum(1 for rec in self.records.values() if rec.state == state)

    def _submitted(self) -> List[SimulationRecord]:
        """Every record handed to the scheduler so far, in submission (id) order."""
        return [self.records[sim_id] for sim_id in range(self.next_to_submit)]

    @property
    def all_finished(self) -> bool:
        return all(rec.state == SimulationState.FINISHED for rec in self.records.values())

    # ------------------------------------------------------------ lifecycle
    def submit_available(self) -> List[int]:
        """Submit pending simulations (in id order) while submitted plus
        running stay within the job limit; each draws its start delay.

        Mirrors Melissa's behaviour of keeping the scheduler fed with at most
        ``m`` outstanding client jobs.
        """
        submitted: List[int] = []
        outstanding = len(
            [rec for rec in self._submitted() if rec.state != SimulationState.FINISHED]
        )
        while self.next_to_submit < self.budget and outstanding < self.job_limit:
            record = self.records[self.next_to_submit]
            delay = int(self._rng.integers(0, self.max_start_delay + 1)) if self.max_start_delay else 0
            record.state = SimulationState.SUBMITTED
            record.submitted_tick = self.tick
            record.eligible_tick = self.tick + delay
            submitted.append(record.simulation_id)
            self.next_to_submit += 1
            outstanding += 1
        return submitted

    def advance(self) -> List[SolverClient]:
        """Advance one tick and start every submitted simulation now eligible.

        They start in order of (eligible tick, id) — jitter in the eligible
        tick is what shuffles the start order relative to the submission
        order.  Submission keeps submitted plus running within ``m``, so every
        eligible simulation has a slot.
        """
        self.tick += 1
        eligible = sorted(
            [
                rec
                for rec in self._submitted()
                if rec.state == SimulationState.SUBMITTED and rec.eligible_tick <= self.tick  # type: ignore[operator]
            ],
            key=lambda rec: (rec.eligible_tick, rec.simulation_id),
        )
        for record in eligible:
            record.state = SimulationState.RUNNING
            record.started_tick = self.tick
            record.client = SolverClient(record.simulation_id, record.parameters, self.solver, self.workers)
            record.client.start()  # a worker reads ahead from now on; inline, nothing runs before produce()
        return [record.client for record in eligible]  # type: ignore[misc]

    def mark_finished(self, simulation_id: int) -> None:
        record = self.records[simulation_id]
        if record.state != SimulationState.RUNNING:
            raise ValueError(
                f"simulation {simulation_id} cannot finish from state {record.state}"
            )
        record.state = SimulationState.FINISHED
        record.completed_tick = self.tick

    def running_clients(self) -> List[SolverClient]:
        return [
            rec.client
            for rec in self.records.values()
            if rec.state == SimulationState.RUNNING and rec.client is not None
        ]

    # -------------------------------------------------------------- steering
    def steerable_simulation_ids(self) -> List[int]:
        """Ids whose parameters may still be replaced (Section 3.3 rule).

        The server may only touch simulations at least ``m`` ids beyond the
        highest id it has observed from the launcher, i.e. ``id >= k + m``,
        *and* that are still pending.
        """
        threshold = self.highest_submitted_id + self.job_limit
        return sorted(
            sim_id
            for sim_id, rec in self.records.items()
            if rec.state == SimulationState.PENDING and sim_id >= threshold
        )

    def update_parameters(self, simulation_id: int, parameters: np.ndarray, source: str) -> None:
        """Apply a steering request to a pending simulation."""
        record = self.records[simulation_id]
        if record.state != SimulationState.PENDING:
            raise ValueError(
                f"simulation {simulation_id} is {record.state.value}; only pending simulations are steerable"
            )
        record.parameters = np.asarray(parameters, dtype=np.float64).copy()
        record.source = source
        record.history.append(source)

    # ---------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, Dict[str, object]]:
        """The ledger as the snapshot's ``"scheduler"`` and ``"launcher"`` subtrees.

        ``"scheduler"`` lists every submitted simulation's job ticks in
        submission order; ``"launcher"`` every record, with running clients'
        progress.  Nothing derived from these is written: schema 3 and older
        also wrote ``highest_submitted_id`` (``next_to_submit − 1``), the
        clients' start order ``factory_created`` (the jobs' ticks give it)
        and each record's ``n_updates`` (its history's length), which the
        loader ignores.
        """
        return {
            "scheduler": {
                "tick": self.tick,
                "job_limit": self.job_limit,
                "max_start_delay": self.max_start_delay,
                "jobs": [
                    {
                        "job_id": rec.simulation_id,
                        "submitted_tick": rec.submitted_tick,
                        "eligible_tick": rec.eligible_tick,
                        "state": JOB_STATES[rec.state],
                        "started_tick": rec.started_tick,
                        "completed_tick": rec.completed_tick,
                    }
                    for rec in self._submitted()
                ],
            },
            "launcher": {
                "next_to_submit": self.next_to_submit,
                "records": [
                    {
                        "simulation_id": rec.simulation_id,
                        "parameters": rec.parameters.copy(),
                        "source": rec.source,
                        "state": rec.state.value,
                        "history": list(rec.history),
                        "client": None if rec.client is None else rec.client.state_dict(),
                    }
                    for rec in self.records.values()
                ],
            },
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Rebuild the ledger from the ``"scheduler"`` and ``"launcher"`` subtrees
        of ``state``; running clients are fast-forwarded in place."""
        scheduler: Dict = state["scheduler"]  # type: ignore[assignment]
        launcher: Dict = state["launcher"]  # type: ignore[assignment]
        if int(scheduler["job_limit"]) != self.job_limit:
            raise ValueError(
                f"scheduler job_limit mismatch: state has {scheduler['job_limit']}, "
                f"launcher has {self.job_limit}"
            )
        jobs = {int(job["job_id"]): job for job in scheduler["jobs"]}
        for record in self.records.values():
            if record.client is not None:
                record.client.close()  # the ledger being replaced gives its streams up first
        records: Dict[int, SimulationRecord] = {}
        for payload in launcher["records"]:
            sim_id = int(payload["simulation_id"])
            job = jobs.get(sim_id, {})
            record = SimulationRecord(
                simulation_id=sim_id,
                parameters=np.asarray(payload["parameters"], dtype=np.float64),
                source=str(payload["source"]),
                state=SimulationState(payload["state"]),
                history=[str(item) for item in payload["history"]],
                submitted_tick=_optional_int(job.get("submitted_tick")),
                eligible_tick=_optional_int(job.get("eligible_tick")),
                started_tick=_optional_int(job.get("started_tick")),
                completed_tick=_optional_int(job.get("completed_tick")),
            )
            if JOB_STATES.get(record.state) != job.get("state"):
                raise ValueError(
                    f"simulation {sim_id} is {record.state.value} in the launcher state "
                    f"but {job.get('state')} in the scheduler state"
                )
            if payload["client"] is not None:
                record.client = SolverClient(sim_id, record.parameters, self.solver, self.workers)
                record.client.load_state_dict(payload["client"])
            records[sim_id] = record
        self.records = records
        self.tick = int(scheduler["tick"])
        self.max_start_delay = int(scheduler["max_start_delay"])
        self.next_to_submit = int(launcher["next_to_submit"])

    # -------------------------------------------------------------- analysis
    def from_uniform(self, simulation_ids: np.ndarray) -> List[bool]:
        """Whether each simulation's parameters came from a uniform draw."""
        records, uniform = self.records, ParameterSource.UNIFORM
        return [records[sim_id].source in uniform for sim_id in simulation_ids.tolist()]

    def executed_parameters(self) -> tuple[np.ndarray, List[str]]:
        """Parameters and provenance of every simulation, in id order.

        Includes pending simulations (their current parameters), which matches
        the paper's Figure 4 statistic of "800 input parameters" of a run.
        """
        ids = sorted(self.records)
        params = np.stack([self.records[i].parameters for i in ids], axis=0)
        sources = [self.records[i].source for i in ids]
        return params, sources

    def summary(self) -> Dict[str, int]:
        counts = {state.value: self.count_state(state) for state in SimulationState}
        counts["total"] = self.budget
        counts["overwrites"] = sum(rec.n_updates for rec in self.records.values())
        return counts
