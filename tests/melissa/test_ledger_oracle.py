"""Exact-equality oracle for the launcher's one simulation ledger.

:class:`repro.melissa.launcher.Launcher` keeps each simulation's whole
lifecycle — parameters, provenance, state, scheduler ticks — as one row of
its columns, and the running clients by id.  It replaced three classes that
each kept part of it: a batch scheduler with its own job state machine, a
client factory that logged the start order, and a launcher of per-simulation
records that kept both in step.  Those three classes are copied below,
verbatim, as the reference.

Hypothesis drives the reference and the ledger through the same ticks: random
budgets, job limits, start delays and seeds, random finishes of running
clients and random steering of steerable ids.  After every tick the submitted,
started and running ids (in order), the steerable ids, the start-delay RNG,
the summary, the uniform flag of every id, the executed parameters and the
snapshot state must be equal.  The reference's ``"scheduler"`` and
``"launcher"`` records are compared with the ledger's columns through
:func:`as_columns`, and the ledger's columns with the reference's records
through :func:`as_records`; both keep a record's steering ``history`` as its
length only, as the ledger does.  Part way through, a state written by each
side is loaded into the other — the reference's records through the ledger's
schema-1-to-5 reader — and the loaded copies must go on identically too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.breed.samplers import ParameterSource
from repro.melissa import launcher as ledger
from repro.melissa import client as melissa_client
from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.sampling.uniform import uniform_in_bounds
from repro.solvers.base import Solver

# ---------------------------------------------------------------------------
# The reference: batch scheduler, client factory and launcher, verbatim
# ---------------------------------------------------------------------------


class JobState(enum.Enum):
    """Lifecycle of one scheduler job."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


@dataclass
class SchedulerJob:
    """Book-keeping record of a submitted job."""

    job_id: int
    submitted_tick: int
    eligible_tick: int
    state: JobState = JobState.QUEUED
    started_tick: Optional[int] = None
    completed_tick: Optional[int] = None


class BatchScheduler:
    """Discrete-tick scheduler with a concurrent-job limit and start jitter."""

    def __init__(
        self,
        job_limit: int,
        rng: np.random.Generator,
        max_start_delay: int = 0,
    ) -> None:
        if job_limit < 1:
            raise ValueError("job_limit must be >= 1")
        if max_start_delay < 0:
            raise ValueError("max_start_delay must be non-negative")
        self.job_limit = job_limit
        self.max_start_delay = max_start_delay
        self._rng = rng
        self._jobs: Dict[int, SchedulerJob] = {}
        self._tick = 0

    # --------------------------------------------------------------- queries
    @property
    def tick_count(self) -> int:
        return self._tick

    def job(self, job_id: int) -> SchedulerJob:
        return self._jobs[job_id]

    def jobs_in_state(self, state: JobState) -> List[int]:
        return [jid for jid, job in self._jobs.items() if job.state == state]

    @property
    def n_running(self) -> int:
        return len(self.jobs_in_state(JobState.RUNNING))

    @property
    def n_queued(self) -> int:
        return len(self.jobs_in_state(JobState.QUEUED))

    def has_capacity(self) -> bool:
        return self.n_running < self.job_limit

    # ------------------------------------------------------------ lifecycle
    def submit(self, job_id: int) -> SchedulerJob:
        """Submit a job; it becomes eligible after a random delay of ticks."""
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} already submitted")
        delay = int(self._rng.integers(0, self.max_start_delay + 1)) if self.max_start_delay else 0
        job = SchedulerJob(job_id=job_id, submitted_tick=self._tick, eligible_tick=self._tick + delay)
        self._jobs[job_id] = job
        return job

    def advance(self) -> List[int]:
        """Advance one tick and return the ids of jobs that started this tick.

        Eligible queued jobs start in order of (eligible tick, job id) while
        capacity remains — jitter in the eligible tick is what shuffles the
        start order relative to the submission order.
        """
        self._tick += 1
        started: List[int] = []
        eligible = [
            job
            for job in self._jobs.values()
            if job.state == JobState.QUEUED and job.eligible_tick <= self._tick
        ]
        eligible.sort(key=lambda job: (job.eligible_tick, job.job_id))
        for job in eligible:
            if not self.has_capacity():
                break
            job.state = JobState.RUNNING
            job.started_tick = self._tick
            started.append(job.job_id)
        return started

    def complete(self, job_id: int) -> None:
        """Mark a running job as completed (frees one slot)."""
        job = self._jobs[job_id]
        if job.state != JobState.RUNNING:
            raise ValueError(f"job {job_id} is not running (state={job.state})")
        job.state = JobState.COMPLETED
        job.completed_tick = self._tick

    # --------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, object]:
        """Tick counter and every job record, in submission order."""
        return {
            "tick": self._tick,
            "job_limit": self.job_limit,
            "max_start_delay": self.max_start_delay,
            "jobs": [
                {
                    "job_id": job.job_id,
                    "submitted_tick": job.submitted_tick,
                    "eligible_tick": job.eligible_tick,
                    "state": job.state.value,
                    "started_tick": job.started_tick,
                    "completed_tick": job.completed_tick,
                }
                for job in self._jobs.values()
            ],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        if int(state["job_limit"]) != self.job_limit:  # type: ignore[arg-type]
            raise ValueError(
                f"scheduler job_limit mismatch: state has {state['job_limit']}, "
                f"scheduler has {self.job_limit}"
            )
        self._tick = int(state["tick"])  # type: ignore[arg-type]
        self.max_start_delay = int(state["max_start_delay"])  # type: ignore[arg-type]
        self._jobs = {}
        for payload in state["jobs"]:  # type: ignore[union-attr]
            job = SchedulerJob(
                job_id=int(payload["job_id"]),
                submitted_tick=int(payload["submitted_tick"]),
                eligible_tick=int(payload["eligible_tick"]),
                state=JobState(payload["state"]),
                started_tick=None if payload["started_tick"] is None else int(payload["started_tick"]),
                completed_tick=None if payload["completed_tick"] is None else int(payload["completed_tick"]),
            )
            self._jobs[job.job_id] = job

    # ------------------------------------------------------------- summary
    def summary(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        for job in self._jobs.values():
            counts[job.state.value] += 1
        counts["total"] = len(self._jobs)
        counts["ticks"] = self._tick
        return counts


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


class SimulationState(enum.Enum):
    """Lifecycle of one simulation in the launcher's ledger."""

    PENDING = "pending"        # not yet submitted to the scheduler: steerable
    SUBMITTED = "submitted"    # handed to the scheduler, waiting to start
    RUNNING = "running"        # client job producing time steps
    FINISHED = "finished"      # full trajectory streamed


@dataclass
class SimulationRecord:
    """Ledger entry of one simulation of the budget."""

    simulation_id: int
    parameters: np.ndarray
    source: str = ParameterSource.INITIAL_UNIFORM
    state: SimulationState = SimulationState.PENDING
    client: Optional[SolverClient] = None
    #: number of times steering replaced this simulation's parameters
    n_updates: int = 0
    #: history of (source, parameters) overwrites, most recent last
    history: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.parameters = np.asarray(self.parameters, dtype=np.float64).copy()


class Launcher:
    """Simulation-budget manager bridging the server and the batch scheduler."""

    def __init__(
        self,
        initial_parameters: np.ndarray,
        client_factory: ClientFactory,
        scheduler: BatchScheduler,
    ) -> None:
        parameters = np.atleast_2d(np.asarray(initial_parameters, dtype=np.float64))
        if parameters.shape[0] == 0:
            raise ValueError("the simulation budget must contain at least one simulation")
        self.records: Dict[int, SimulationRecord] = {
            sim_id: SimulationRecord(simulation_id=sim_id, parameters=row)
            for sim_id, row in enumerate(parameters)
        }
        self.client_factory = client_factory
        self.scheduler = scheduler
        #: highest simulation id ever submitted to the scheduler (-1 before any)
        self.highest_submitted_id = -1
        #: submission order is by increasing simulation id, as in Melissa
        self._next_to_submit = 0

    # ---------------------------------------------------------------- sizes
    @property
    def budget(self) -> int:
        """Total number of simulations ``S``."""
        return len(self.records)

    @property
    def job_limit(self) -> int:
        """Maximum number of simultaneously running clients ``m``."""
        return self.scheduler.job_limit

    def count_state(self, state: SimulationState) -> int:
        return sum(1 for rec in self.records.values() if rec.state == state)

    @property
    def all_finished(self) -> bool:
        return all(rec.state == SimulationState.FINISHED for rec in self.records.values())

    # ------------------------------------------------------------ submission
    def submit_available(self) -> List[int]:
        """Submit pending simulations (in id order) while the scheduler queue
        plus running set stays within the job limit.

        Mirrors Melissa's behaviour of keeping the scheduler fed with at most
        ``m`` outstanding client jobs.
        """
        submitted: List[int] = []
        outstanding = self.scheduler.n_running + self.scheduler.n_queued
        while self._next_to_submit < self.budget and outstanding < self.job_limit:
            sim_id = self._next_to_submit
            record = self.records[sim_id]
            self.scheduler.submit(sim_id)
            record.state = SimulationState.SUBMITTED
            self.highest_submitted_id = max(self.highest_submitted_id, sim_id)
            submitted.append(sim_id)
            self._next_to_submit += 1
            outstanding += 1
        return submitted

    def advance_scheduler(self) -> List[SolverClient]:
        """Advance the scheduler one tick; instantiate clients for started jobs."""
        started_clients: List[SolverClient] = []
        for sim_id in self.scheduler.advance():
            record = self.records[sim_id]
            record.state = SimulationState.RUNNING
            record.client = self.client_factory.create(sim_id, record.parameters)
            started_clients.append(record.client)
        return started_clients

    def mark_finished(self, simulation_id: int) -> None:
        record = self.records[simulation_id]
        if record.state != SimulationState.RUNNING:
            raise ValueError(
                f"simulation {simulation_id} cannot finish from state {record.state}"
            )
        record.state = SimulationState.FINISHED
        self.scheduler.complete(simulation_id)

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
        record.n_updates += 1
        record.history.append(source)

    # ---------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, object]:
        """Ledger of every simulation, including running clients' progress."""
        return {
            "highest_submitted_id": self.highest_submitted_id,
            "next_to_submit": self._next_to_submit,
            "factory_created": list(self.client_factory.created),
            "records": [
                {
                    "simulation_id": record.simulation_id,
                    "parameters": record.parameters.copy(),
                    "source": record.source,
                    "state": record.state.value,
                    "n_updates": record.n_updates,
                    "history": list(record.history),
                    "client": None if record.client is None else record.client.state_dict(),
                }
                for record in self.records.values()
            ],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Rebuild the ledger; running clients are fast-forwarded in place."""
        for record in self.records.values():
            if record.client is not None:
                record.client.close()  # the ledger being replaced gives its streams up first
        records: Dict[int, SimulationRecord] = {}
        for payload in state["records"]:  # type: ignore[union-attr]
            record = SimulationRecord(
                simulation_id=int(payload["simulation_id"]),
                parameters=np.asarray(payload["parameters"], dtype=np.float64),
                source=str(payload["source"]),
                state=SimulationState(payload["state"]),
                n_updates=int(payload["n_updates"]),
                history=[str(item) for item in payload["history"]],
            )
            if payload["client"] is not None:
                record.client = self.client_factory.create(
                    record.simulation_id, record.parameters, state=payload["client"]
                )
            records[record.simulation_id] = record
        self.records = records
        self.highest_submitted_id = int(state["highest_submitted_id"])  # type: ignore[arg-type]
        self._next_to_submit = int(state["next_to_submit"])  # type: ignore[arg-type]
        # Rebuilding clients above appended to the factory log; restore it to
        # the snapshot's view so analysis counters stay faithful.
        self.client_factory.created = [int(i) for i in state["factory_created"]]  # type: ignore[union-attr]

    # -------------------------------------------------------------- analysis
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


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class SolverClient(melissa_client.SolverClient):
    """The client the reference builds: the ledger's, with the progress state
    the reference saves and resumes its clients by (the ledger writes its
    running clients' ``n_produced`` as a column instead)."""

    def state_dict(self) -> dict:
        return {"n_produced": self.n_produced, "finished": self.finished}

    def load_state_dict(self, state: dict) -> None:
        self.finished = bool(state["finished"])
        self.n_produced = int(state["n_produced"])
        if not self.finished:
            self.start()


STEERING_SOURCES = [ParameterSource.PROPOSAL, ParameterSource.MIX_UNIFORM]
#: the ledger's code of each source and state, and the scheduler's name of each state
SOURCE_CODES = {
    ParameterSource.INITIAL_UNIFORM: 0, ParameterSource.MIX_UNIFORM: 1, ParameterSource.PROPOSAL: 2
}
STATE_CODES = {"pending": 0, "submitted": 1, "running": 2, "finished": 3}
JOB_NAMES = {"submitted": "queued", "running": "running", "finished": "completed"}
TICKS = ("submitted_tick", "eligible_tick", "started_tick", "completed_tick")


def build_reference(params, solver, job_limit, rng, max_start_delay) -> Launcher:
    return Launcher(params, ClientFactory(solver=solver), BatchScheduler(job_limit, rng, max_start_delay))


def reference_state(launcher: Launcher) -> dict:
    return {"scheduler": launcher.scheduler.state_dict(), "launcher": launcher.state_dict()}


def load_reference(launcher: Launcher, state: dict) -> None:
    launcher.scheduler.load_state_dict(state["scheduler"])
    launcher.load_state_dict(state["launcher"])


def as_columns(state: dict) -> dict:
    """The reference's records as the ledger's columns: one row per simulation,
    −1 for a tick not yet reached, the histories' total length as the
    overwrites and the running clients' progress in id order."""
    scheduler, records = state["scheduler"], state["launcher"]["records"]
    jobs = {job["job_id"]: job for job in scheduler["jobs"]}

    def ticks(key: str) -> np.ndarray:
        values = [jobs.get(record["simulation_id"], {}).get(key) for record in records]
        return np.array([-1 if value is None else value for value in values], dtype=np.int64)

    return {
        "launcher": {
            "tick": scheduler["tick"],
            "job_limit": scheduler["job_limit"],
            "max_start_delay": scheduler["max_start_delay"],
            "next_to_submit": state["launcher"]["next_to_submit"],
            "overwrites": sum(len(record["history"]) for record in records),
            "parameters": np.stack([record["parameters"] for record in records]),
            "source": np.array([SOURCE_CODES[record["source"]] for record in records], dtype=np.int8),
            "state": np.array([STATE_CODES[record["state"]] for record in records], dtype=np.int8),
            **{key: ticks(key) for key in TICKS},
            "n_produced": np.array(
                [record["client"]["n_produced"] for record in records if record["state"] == "running"],
                dtype=np.int64,
            ),
        }
    }


def as_records(state: dict) -> dict:
    """The ledger's columns as the reference's records, with the fields the
    ledger does not keep re-derived: the newest submitted id, the clients'
    start order from the jobs' ticks, and each record's update count from its
    history.  The columns keep the overwrites' total only: simulation 0's
    history carries them all.  Only running simulations have a client."""
    columns = state["launcher"]
    names = {code: name for name, code in STATE_CODES.items()}
    states = [names[code] for code in columns["state"].tolist()]
    sources = {code: source for source, code in SOURCE_CODES.items()}

    def tick(sim_id: int, key: str) -> Optional[int]:
        value = int(columns[key][sim_id])
        return None if value < 0 else value

    jobs = [
        {
            "job_id": sim_id,
            "submitted_tick": tick(sim_id, "submitted_tick"),
            "eligible_tick": tick(sim_id, "eligible_tick"),
            "state": JOB_NAMES[states[sim_id]],
            "started_tick": tick(sim_id, "started_tick"),
            "completed_tick": tick(sim_id, "completed_tick"),
        }
        for sim_id in range(columns["next_to_submit"])
    ]
    started = sorted(
        (job for job in jobs if job["started_tick"] is not None),
        key=lambda job: (job["started_tick"], job["eligible_tick"], job["job_id"]),
    )
    progress = iter(columns["n_produced"].tolist())
    records = []
    for sim_id, name in enumerate(states):
        history = [ParameterSource.PROPOSAL] * columns["overwrites"] if sim_id == 0 else []
        records.append(
            {
                "simulation_id": sim_id,
                "parameters": columns["parameters"][sim_id].copy(),
                "source": sources[int(columns["source"][sim_id])],
                "state": name,
                "n_updates": len(history),
                "history": history,
                "client": {"n_produced": next(progress), "finished": False} if name == "running" else None,
            }
        )
    return {
        "scheduler": {
            "tick": columns["tick"],
            "job_limit": columns["job_limit"],
            "max_start_delay": columns["max_start_delay"],
            "jobs": jobs,
        },
        "launcher": {
            "highest_submitted_id": columns["next_to_submit"] - 1,
            "next_to_submit": columns["next_to_submit"],
            "factory_created": [job["job_id"] for job in started],
            "records": records,
        },
    }


#: the record keys :func:`with_history_length` replaces
DROPPED = ("n_updates", "history", "client")


def with_history_length(state: dict) -> dict:
    """A record-shaped state with its histories reduced to their total length
    and the client of every simulation that is not running dropped: what
    :func:`as_records` can give back."""
    launcher = state["launcher"]
    records = launcher["records"]
    return {
        "scheduler": state["scheduler"],
        "launcher": {
            **{key: value for key, value in launcher.items() if key != "records"},
            "overwrites": sum(len(record["history"]) for record in records),
            "records": [
                {
                    **{key: value for key, value in record.items() if key not in DROPPED},
                    "client": record["client"] if record["state"] == "running" else None,
                }
                for record in records
            ],
        },
    }


def uniform_flags(side) -> list:
    """Whether each simulation's parameters came from a uniform draw, over every id."""
    launcher, _, is_reference = side
    ids = np.arange(launcher.budget)
    if is_reference:
        return [launcher.records[sim_id].source in ParameterSource.UNIFORM for sim_id in ids.tolist()]
    return [bool(flag) for flag in launcher.from_uniform(ids)]


def generator_at(rng: np.random.Generator) -> np.random.Generator:
    copy = np.random.default_rng()
    copy.bit_generator.state = rng.bit_generator.state
    return copy


def assert_same(a, b, path: str = "state") -> None:
    """Equal key for key and in key order; arrays by value, dtype and shape."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), path
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), path
    elif isinstance(a, dict):
        assert isinstance(b, dict) and list(a) == list(b), path
        for key in a:
            assert_same(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), path
        for index, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{index}]")
    else:
        assert type(a) is type(b) and a == b, (path, a, b)


def all_equal(values: list, what: str) -> None:
    for value in values[1:]:
        assert_same(values[0], value, what)


@settings(max_examples=60, deadline=None)
@given(
    n_simulations=st.integers(min_value=1, max_value=20),
    job_limit=st.integers(min_value=1, max_value=6),
    max_start_delay=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
    reload_tick=st.integers(min_value=1, max_value=25),
)
@example(n_simulations=12, job_limit=3, max_start_delay=2, seed=0, reload_tick=4)
def test_ledger_equals_the_three_class_reference(
    tiny_solver, n_simulations, job_limit, max_start_delay, seed, reload_tick
):
    params = uniform_in_bounds(n_simulations, HEAT2D_BOUNDS, np.random.default_rng(seed))
    reference_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    # (launcher, its start-delay RNG, reference?) — every side sees the same actions
    sides = [
        (build_reference(params, tiny_solver, job_limit, reference_rng, max_start_delay), reference_rng, True),
        (ledger.Launcher(params, tiny_solver, job_limit, rng, max_start_delay), rng, False),
    ]
    actions = np.random.default_rng(seed + 1)

    def columns_of(side) -> dict:
        launcher, _, is_reference = side
        return as_columns(reference_state(launcher)) if is_reference else launcher.state_dict()

    def records_of(side) -> dict:
        launcher, _, is_reference = side
        state = reference_state(launcher) if is_reference else as_records(launcher.state_dict())
        return with_history_length(state)

    for tick in range(1, 300):
        if tick == reload_tick:
            # a state written on either side loads into the other and goes on
            # identically; the loaded copies take the state's start delay, not 0
            reference, new = sides[0], sides[1]
            into_new_rng, into_reference_rng = generator_at(reference[1]), generator_at(new[1])
            into_new = ledger.Launcher(params, tiny_solver, job_limit, into_new_rng)
            into_new.load_state_dict(reference_state(reference[0]))  # the schema-1-to-5 reader
            into_reference = build_reference(params, tiny_solver, job_limit, into_reference_rng, 0)
            load_reference(into_reference, as_records(new[0].state_dict()))
            sides += [(into_new, into_new_rng, False), (into_reference, into_reference_rng, True)]

        all_equal([side[0].submit_available() for side in sides], "submitted ids")
        started = [
            side[0].advance_scheduler() if side[2] else side[0].advance() for side in sides
        ]
        all_equal([[client.simulation_id for client in clients] for clients in started], "started ids")

        running = [side[0].running_clients() for side in sides]
        all_equal([[client.simulation_id for client in clients] for clients in running], "running ids")
        for clients in zip(*running):
            sim_id = clients[0].simulation_id
            if actions.random() < 0.6:
                n_steps = int(actions.integers(1, 4))
                all_equal([client.produce(n_steps) for client in clients], f"rows of {sim_id}")
            if clients[0].finished or actions.random() < 0.2:
                for side in sides:
                    side[0].mark_finished(sim_id)

        steerable = [side[0].steerable_simulation_ids() for side in sides]
        all_equal(steerable, "steerable ids")
        for sim_id in steerable[0]:
            if actions.random() < 0.4:
                new_params = uniform_in_bounds(1, HEAT2D_BOUNDS, actions)[0]
                source = STEERING_SOURCES[int(actions.integers(len(STEERING_SOURCES)))]
                for side in sides:
                    side[0].update_parameters(sim_id, new_params, source)

        all_equal([side[1].bit_generator.state for side in sides], "start-delay RNG")
        all_equal([side[0].summary() for side in sides], "summary")
        all_equal([uniform_flags(side) for side in sides], "uniform flags")
        all_equal([list(side[0].executed_parameters()) for side in sides], "executed parameters")
        all_equal([side[0].steerable_simulation_ids() for side in sides], "steerable ids after steering")
        all_equal([columns_of(side) for side in sides], "state as columns")
        all_equal([records_of(side) for side in sides], "state as records, the retired fields re-derived")
        if sides[0][0].all_finished:
            break
    assert all(side[0].all_finished for side in sides)
    assert len(sides) == 4 or reload_tick >= tick
