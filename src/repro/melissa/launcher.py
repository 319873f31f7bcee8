"""Launcher: the one ledger of every simulation, from pending to finished.

Responsibilities reproduced from the paper (Section 2.2, 3.3 and Appendix A):

* hold the budget of ``S`` simulations and their input parameters,
* submit client jobs in id order, at most ``m`` submitted or running at once,
* play the batch scheduler (OAR on the real cluster): a submitted job waits a
  random number of ticks, at most ``max_start_delay``, before it may start
  ("the inherent uncertainty of the batch scheduler", Section 3.3), so jobs
  can start out of submission order,
* start a :class:`SolverClient` per started simulation, all sharing one
  solver, as the paper's solver factorises its system once per mesh,
* report the *steerable* simulations: pending ones whose id is at least
  ``k + m``, ``k`` the highest submitted id — anything closer may already be
  with the scheduler and start at any moment,
* apply :meth:`update_parameters` steering requests and keep the provenance
  of every parameter vector (the Figure 4 analysis, Figure 6 ``uniform``).

The ledger is one column per fact, row ``j`` for simulation ``j``
(:data:`COLUMNS`).  Its parameters are the only copy: pending blocks, Breed's
AMIS window and a started simulation's client (its row) read them there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.breed.samplers import ParameterSource
from repro.melissa.client import SolverClient
from repro.solvers.base import Solver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.melissa.workers import SolverWorkers

__all__ = ["Launcher", "STATES", "SOURCES", "COLUMNS"]

#: a simulation's lifecycle; each name's index is its code in the ``state``
#: column: not yet submitted (steerable), handed to the scheduler and waiting
#: to start, its client producing time steps, its trajectory all streamed
STATES = ("pending", "submitted", "running", "finished")
PENDING, SUBMITTED, RUNNING, FINISHED = range(len(STATES))
#: the ``ParameterSource`` tags; the index of each is its code in the ``source`` column
SOURCES = (ParameterSource.INITIAL_UNIFORM, ParameterSource.MIX_UNIFORM, ParameterSource.PROPOSAL)
_UNIFORM = np.array([source in ParameterSource.UNIFORM for source in SOURCES])
#: a job's ticks: submitted at, may start from, started at, completed at (−1 until then)
TICKS = ("submitted_tick", "eligible_tick", "started_tick", "completed_tick")
#: the ledger's columns and their dtypes: the parameter vectors, the
#: :data:`SOURCES` code of their provenance, the :data:`STATES` code and the
#: job's ticks
COLUMNS = {"parameters": np.float64, "source": np.int8, "state": np.int8, **dict.fromkeys(TICKS, np.int64)}
#: the scheduler's job state of each of :data:`STATES` in schemas 1 to 5
_JOB_STATES = (None, "queued", "running", "completed")


def _source_code(source: str) -> int:
    if source not in SOURCES:
        raise ValueError(f"unknown parameter source {source!r}; one of {', '.join(SOURCES)}")
    return SOURCES.index(source)


def _columns_of_records(state: Dict) -> Dict[str, Any]:
    """The ledger of a schema-1 to -5 state — a ``"scheduler"`` subtree of jobs
    and a ``"launcher"`` one of per-simulation records — as schema-6 columns.

    The two subtrees must agree on each job's state.  A record's ``history``
    counts its overwrites; the other keys older schemas wrote follow from
    these and are ignored.
    """
    scheduler, records = state["scheduler"], state["launcher"]["records"]
    jobs = {int(job["job_id"]): job for job in scheduler["jobs"]}
    rows = []  # one per simulation, a value per column
    for sim_id, record in enumerate(records):
        job, code = jobs.get(sim_id, {}), STATES.index(record["state"])
        if _JOB_STATES[code] != job.get("state"):
            raise ValueError(f"simulation {sim_id} is {record['state']} in the launcher state "
                             f"but {job.get('state')} in the scheduler state")
        ticks = (-1 if job.get(key) is None else job[key] for key in TICKS)
        rows.append((record["parameters"], _source_code(record["source"]), code, *ticks))
    return {
        **{key: scheduler[key] for key in ("tick", "job_limit", "max_start_delay")},
        "next_to_submit": state["launcher"]["next_to_submit"],
        "overwrites": sum(len(record["history"]) for record in records),
        **dict(zip(COLUMNS, zip(*rows))),
        "n_produced": [record["client"]["n_produced"] for record in records if record["state"] == "running"],
    }


class Launcher:
    """Simulation-budget manager: submits, starts and steers the ``S`` simulations.

    ``rng`` draws each submission's start delay; ``workers`` are the owning
    session's solver worker processes (None: clients step the solver inline).
    Each name of :data:`COLUMNS` is an ``(S, …)`` array attribute.
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
        self.solver = solver
        #: maximum number of simultaneously submitted or running clients ``m``
        self.job_limit = job_limit
        self.max_start_delay = max_start_delay
        self._rng = rng
        self.workers = workers
        n = len(parameters)
        self._adopt({"parameters": parameters, "source": np.zeros(n), "state": np.zeros(n),
                     **dict.fromkeys(TICKS, np.full(n, -1))})
        #: scheduler ticks advanced so far
        self.tick = 0
        #: submission order is by increasing simulation id, as in Melissa
        self.next_to_submit = 0
        #: number of times steering replaced a simulation's parameters
        self.overwrites = 0
        #: the client of each running simulation, by id
        self._clients: Dict[int, SolverClient] = {}

    def _adopt(self, columns: Dict[str, Any]) -> None:
        """Set each of :data:`COLUMNS` to a copy of ``columns``' entry."""
        for key, dtype in COLUMNS.items():
            setattr(self, key, np.array(columns[key], dtype=dtype))

    # ---------------------------------------------------------------- sizes
    @property
    def budget(self) -> int:
        """Total number of simulations ``S``."""
        return len(self.parameters)

    @property
    def highest_submitted_id(self) -> int:
        """The ``k`` of the steering rule: the newest submitted id (-1 before any)."""
        return self.next_to_submit - 1

    @property
    def all_finished(self) -> bool:
        return bool((self.state == FINISHED).all())

    # ------------------------------------------------------------ lifecycle
    def submit_available(self) -> List[int]:
        """Submit pending simulations in id order while submitted plus running
        stay within ``m``, as Melissa keeps its scheduler fed; each draws its
        start delay."""
        submitted: List[int] = []
        submitted_before = self.state[: self.next_to_submit]
        outstanding = int(np.count_nonzero(submitted_before != FINISHED))
        while self.next_to_submit < self.budget and outstanding < self.job_limit:
            sim_id = self.next_to_submit
            delay = int(self._rng.integers(0, self.max_start_delay + 1)) if self.max_start_delay else 0
            self.state[sim_id] = SUBMITTED
            self.submitted_tick[sim_id] = self.tick
            self.eligible_tick[sim_id] = self.tick + delay
            submitted.append(sim_id)
            self.next_to_submit += 1
            outstanding += 1
        return submitted

    def advance(self) -> List[SolverClient]:
        """Advance one tick and start every submitted simulation now eligible, in
        (eligible tick, id) order: the jittered eligible ticks shuffle the start
        order.  Submission keeps submitted plus running within ``m``, so every
        eligible simulation has a slot."""
        self.tick += 1
        eligible = np.flatnonzero((self.state == SUBMITTED) & (self.eligible_tick <= self.tick))
        eligible = eligible[np.argsort(self.eligible_tick[eligible], kind="stable")]
        self.state[eligible] = RUNNING
        self.started_tick[eligible] = self.tick
        return [self._start(sim_id) for sim_id in eligible.tolist()]

    def _start(self, sim_id: int, n_produced: int = 0) -> SolverClient:
        """The started client of a running simulation, ``n_produced`` time steps in."""
        client = SolverClient(sim_id, self.parameters[sim_id], self.solver, self.workers)
        client.n_produced = n_produced
        client.start()  # a worker reads ahead from now on; inline, nothing runs before produce()
        self._clients[sim_id] = client
        return client

    def mark_finished(self, simulation_id: int) -> None:
        """Finish a running simulation; its client is closed and dropped."""
        if self.state[simulation_id] != RUNNING:
            state = STATES[self.state[simulation_id]]
            raise ValueError(f"simulation {simulation_id} is {state}; only running simulations finish")
        self.state[simulation_id] = FINISHED
        self.completed_tick[simulation_id] = self.tick
        self._clients.pop(simulation_id).close()

    def _running_ids(self) -> List[int]:
        return np.flatnonzero(self.state == RUNNING).tolist()

    def running_clients(self) -> List[SolverClient]:
        """The running simulations' clients, in id order."""
        return [self._clients[sim_id] for sim_id in self._running_ids()]

    # -------------------------------------------------------------- steering
    def steerable_simulation_ids(self) -> List[int]:
        """Ids whose parameters may still be replaced (Section 3.3 rule): the
        pending ones at least ``m`` ids beyond the newest submitted ``k``,
        i.e. ``id >= k + m``."""
        threshold = self.highest_submitted_id + self.job_limit
        return (np.flatnonzero(self.state[threshold:] == PENDING) + threshold).tolist()

    def update_parameters(self, simulation_id: int, parameters: np.ndarray, source: str) -> None:
        """Apply a steering request to a pending simulation; ``source`` is a ``ParameterSource`` tag."""
        code = _source_code(source)
        if self.state[simulation_id] != PENDING:
            state = STATES[self.state[simulation_id]]
            raise ValueError(f"simulation {simulation_id} is {state}; only pending simulations are steerable")
        self.parameters[simulation_id] = parameters
        self.source[simulation_id] = code
        self.overwrites += 1

    # ---------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, Dict[str, object]]:
        """The ledger as the snapshot's ``"launcher"`` subtree: its counters, a
        copy of each column and the running clients' progress, in id order."""
        n_produced = [client.n_produced for client in self.running_clients()]
        return {
            "launcher": {
                "tick": self.tick,
                "job_limit": self.job_limit,
                "max_start_delay": self.max_start_delay,
                "next_to_submit": self.next_to_submit,
                "overwrites": self.overwrites,
                **{key: getattr(self, key).copy() for key in COLUMNS},
                "n_produced": np.array(n_produced, dtype=np.int64),
            }
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Rebuild the ledger from the ``"launcher"`` subtree of ``state`` (or the
        ``"scheduler"`` and ``"launcher"`` ones of schemas 1 to 5); running
        clients are fast-forwarded in place."""
        columns = _columns_of_records(state) if "scheduler" in state else state["launcher"]
        if int(columns["job_limit"]) != self.job_limit:
            raise ValueError(f"scheduler job_limit mismatch: state has {columns['job_limit']}, "
                             f"launcher has {self.job_limit}")
        for client in self._clients.values():
            client.close()  # the ledger being replaced gives its streams up first
        self._adopt(columns)
        for key in ("tick", "max_start_delay", "next_to_submit", "overwrites"):
            setattr(self, key, int(columns[key]))
        self._clients = {}
        for sim_id, n_produced in zip(self._running_ids(), np.asarray(columns["n_produced"]).tolist()):
            self._start(sim_id, int(n_produced))

    # -------------------------------------------------------------- analysis
    def from_uniform(self, simulation_ids: np.ndarray) -> np.ndarray:
        """Whether each simulation's parameters came from a uniform draw."""
        return _UNIFORM[self.source[simulation_ids]]

    def executed_parameters(self) -> Tuple[np.ndarray, List[str]]:
        """Parameters (a read-only view of the column) and provenance of every
        simulation in id order, pending ones included: the paper's Figure 4
        statistic of "800 input parameters" of a run."""
        view = self.parameters.view()
        view.flags.writeable = False
        return view, [SOURCES[code] for code in self.source.tolist()]

    def summary(self) -> Dict[str, int]:
        counts = np.bincount(self.state, minlength=len(STATES)).tolist()
        return {**dict(zip(STATES, counts)), "total": self.budget, "overwrites": self.overwrites}
