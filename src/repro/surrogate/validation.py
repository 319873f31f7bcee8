"""Fixed validation set and validation-loss evaluation.

Section 4 of the paper: "the pre-created fixed validation set has 200
full-trajectory simulations with parameters generated from a quasi-uniform
Halton sequence".  The validation loss reported on the figures is the MSE of
the surrogate over every ``(λ, t)`` pair of that set.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import nn
from repro.nn.tensor import Tensor
from repro.sampling.bounds import ParameterBounds
from repro.sampling.halton import halton_in_bounds
from repro.solvers.base import Solver
from repro.surrogate.model import DirectSurrogate
from repro.surrogate.normalization import SurrogateScalers

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.api and repro.melissa import us)
    from repro.api.workloads import Workload
    from repro.melissa.workers import SolverWorkers

__all__ = [
    "ValidationSet",
    "build_validation_set",
    "validation_set_floats",
    "validation_set_for_workload",
    "start_validation_loss",
    "validation_loss",
]


@dataclass
class ValidationSet:
    """Pre-computed normalised validation inputs/targets."""

    inputs: np.ndarray
    targets: np.ndarray
    parameters: np.ndarray
    n_trajectories: int
    n_timesteps: int

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        self.parameters = np.asarray(self.parameters, dtype=np.float64)
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must align")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def validation_set_floats(solver: Solver, n_trajectories: int) -> int:
    """float64 count of a validation set's ``inputs`` + ``targets`` (sizes a shared arena)."""
    width = solver.parameter_dim + 1 + solver.field_size
    return max(0, n_trajectories) * (solver.n_timesteps + 1) * width


def _fill_trajectories(
    solver: Solver,
    scalers: SurrogateScalers,
    vectors: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
) -> None:
    """Solve one trajectory per row of ``vectors`` into consecutive row blocks, encoded."""
    rows = solver.n_timesteps + 1
    timesteps = np.arange(rows, dtype=np.float64)
    for index, params in enumerate(vectors):
        block = targets[index * rows : (index + 1) * rows]
        count = 0
        for field in solver.steps(params):
            if count < rows:
                block[count] = field
            count += 1
        if count != rows:
            raise ValueError(
                f"{type(solver).__name__}.steps yielded {count} fields for one trajectory; "
                f"n_timesteps={solver.n_timesteps} requires {rows}"
            )
        # Both encodings are element-wise, so a trajectory block at a time
        # gives the bits the per-sample calls gave.
        scalers.encode_output(block, out=block)
        inputs[index * rows : (index + 1) * rows] = scalers.encode_input(
            np.broadcast_to(params, (rows, params.shape[0])), timesteps
        )


def _fill_share(solver, view, scalers, vectors, first_row, inputs_handle, targets_handle) -> None:
    """One worker's share of a parallel build: the trajectories of ``vectors``, in place."""
    stop_row = first_row + len(vectors) * (solver.n_timesteps + 1)
    _fill_trajectories(
        solver,
        scalers,
        vectors,
        view(inputs_handle)[first_row:stop_row],
        view(targets_handle)[first_row:stop_row],
    )


def build_validation_set(
    solver: Solver,
    bounds: ParameterBounds,
    scalers: SurrogateScalers,
    n_trajectories: int,
    workers: Optional["SolverWorkers"] = None,
) -> ValidationSet:
    """Generate the fixed Halton-sequence validation set by running the solver.

    With ``workers`` (sized for :func:`validation_set_floats`) the arrays live
    in their shared memory and each worker fills one contiguous block of
    trajectories with the code the serial build runs — the same bits.
    """
    if n_trajectories <= 0:
        raise ValueError("n_trajectories must be positive")
    # the paper's fixed set: the Halton points after the origin, unscrambled
    vectors = halton_in_bounds(n_trajectories, bounds, skip=1, rng=None, scramble=False)
    rows = solver.n_timesteps + 1
    shape = (n_trajectories * rows, vectors.shape[1] + 1), (n_trajectories * rows, solver.field_size)
    if workers is None:
        inputs, targets = (np.empty(s, dtype=np.float64) for s in shape)
        _fill_trajectories(solver, scalers, vectors, inputs, targets)
    else:
        (inputs_handle, inputs), (targets_handle, targets) = (workers.allocate(s) for s in shape)
        share = -(-n_trajectories // workers.n_workers)  # the last worker's may be short, or empty
        workers.run(
            _fill_share,
            [
                (scalers, vectors[first : first + share], first * rows, inputs_handle, targets_handle)
                for first in range(0, n_trajectories, share)
            ],
        )
    return ValidationSet(
        inputs=inputs,
        targets=targets,
        parameters=vectors,
        n_trajectories=n_trajectories,
        n_timesteps=solver.n_timesteps,
    )


def validation_set_for_workload(
    workload: "Workload",
    n_trajectories: int,
    solver: Optional[Solver] = None,
    workers: Optional["SolverWorkers"] = None,
) -> Optional[ValidationSet]:
    """Fixed validation set of a :class:`~repro.api.workloads.Workload`.

    Convenience wrapper over :func:`build_validation_set` that pulls the
    solver, parameter bounds and scalers from the workload — the single path
    the training session, the study-input cache and the experiment harness
    all use, so every consumer builds the *same* set for a given scenario.
    Returns ``None`` when ``n_trajectories <= 0`` (validation disabled).

    ``solver`` may be passed to reuse an already-factorised instance;
    ``workers`` (forked from that solver) to build in parallel.
    """
    if n_trajectories <= 0:
        return None
    return build_validation_set(
        solver=solver if solver is not None else workload.build_solver(),
        bounds=workload.bounds,
        scalers=workload.build_scalers(),
        n_trajectories=n_trajectories,
        workers=workers,
    )


def validation_loss(
    model: DirectSurrogate,
    validation_set: ValidationSet,
    batch_size: int = 1024,
    workers: Optional["SolverWorkers"] = None,
) -> float:
    """MSE of the surrogate over the whole validation set (normalised units).

    With ``workers`` that can read the set in place (:meth:`SolverWorkers.handle`),
    more than one batch and a model that pickles, each worker sums the squared
    errors of one contiguous run of batches.  The per-batch sums are added
    here, in batch order and with the same ``+=`` the serial loop uses, so the
    result is the same float.
    """
    shares = _shares(model, validation_set, batch_size, workers)
    if shares is not None:
        return _mean(workers.run(_sum_share, shares))
    starts = range(0, len(validation_set), batch_size)
    return _mean([_batch_sums(model, validation_set.inputs, validation_set.targets, starts, batch_size)])


def start_validation_loss(
    model: DirectSurrogate, validation_set: ValidationSet, workers: Optional["SolverWorkers"],
    batch_size: int = 1024,
) -> Optional[Callable[[bool], Optional[float]]]:
    """:func:`validation_loss` split on ``workers`` and not awaited (``None``: evaluate inline).

    ``n_workers − 1`` shares run at once, so the caller keeps a CPU to train
    on.  ``poll(block)`` is the same float once every share replied, else ``None``.
    """
    shares = _shares(model, validation_set, batch_size, workers)
    if shares is None:
        return None
    run = workers.start(_sum_share, shares, in_flight=max(1, workers.n_workers - 1))
    return lambda block: _mean(run.result()) if block or run.done() else None


def _mean(share_sums: Iterable[Iterable[Tuple[float, int]]]) -> float:
    """Each share's per-batch ``(sum, count)``, added in batch order with the serial ``+=``."""
    total, count = 0.0, 0
    for sums in share_sums:
        for batch_total, batch_count in sums:
            total += batch_total
            count += batch_count
    return total / count if count else float("nan")


def _batch_sums(
    model: nn.Module, inputs: np.ndarray, targets: np.ndarray, starts: range, batch_size: int
) -> Iterator[Tuple[float, int]]:
    """``(sum of squared errors, element count)`` of each batch that begins at one of ``starts``."""
    for start in starts:
        with nn.no_grad():
            stop = min(start + batch_size, len(inputs))
            prediction = model(Tensor(inputs[start:stop])).data
            expected = targets[start:stop]
            # One (1024, 4096) float64 array is 32 MiB: a second one beside the
            # prediction pushes the batch out of the last-level cache, and a
            # fresh one is mmap'd and page-faulted anew every time.  So the
            # difference goes into the prediction itself when that is safe,
            # else into the array NumPy allocates for it.
            out = prediction if _may_overwrite(prediction, expected, inputs, model) else None
            diff = np.subtract(prediction, expected, out=out)
            np.multiply(diff, diff, out=diff)
            batch = float(np.sum(diff)), diff.size
            del prediction, expected, diff, out  # a worker streams between batches without them
        yield batch  # outside no_grad: a suspended batch leaves the flag alone


def _shares(
    model: nn.Module,
    validation_set: ValidationSet,
    batch_size: int,
    workers: Optional["SolverWorkers"],
) -> Optional[List[tuple]]:
    """One contiguous run of batches per worker for :func:`_sum_share`, or ``None``: evaluate here."""
    starts = range(0, len(validation_set), batch_size)
    if workers is None or len(starts) < 2:
        return None
    handles = workers.handle(validation_set.inputs), workers.handle(validation_set.targets)
    if None in handles:
        return None
    try:  # pickled once for every worker
        pickled_model = pickle.dumps(model, pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):  # e.g. a layer class local to a function
        return None
    share = -(-len(starts) // workers.n_workers)
    return [
        (pickled_model, *handles, starts[first : first + share], batch_size)
        for first in range(0, len(starts), share)
    ]


def _sum_share(solver, view, pickled_model, inputs_handle, targets_handle, starts, batch_size):
    """One worker's share of a split evaluation: :func:`_batch_sums` on the arrays in place, lazily."""
    model = pickle.loads(pickled_model)
    return _batch_sums(model, view(inputs_handle), view(targets_handle), starts, batch_size)


def _may_overwrite(
    prediction: np.ndarray, expected: np.ndarray, inputs: np.ndarray, model: nn.Module
) -> bool:
    """Whether ``prediction`` may stand in for the array ``prediction - expected`` allocates.

    It must be laid out like that array (same shape, C order: the reduction
    order, hence the result, depends on it), and writing to it must not reach
    the inputs or a parameter — a layer may hand back a view of either
    (``nn.Identity`` does).
    """
    return (
        prediction.shape == expected.shape
        and prediction.flags.c_contiguous
        and not np.may_share_memory(prediction, inputs)
        and not any(np.may_share_memory(prediction, p.data) for p in model.parameters())
    )
