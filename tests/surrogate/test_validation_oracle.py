"""Exact-equality oracle tests for the validation-set build and evaluation.

The historical implementations — one encoded array per sample, ``np.stack``
at the end; a fresh ``diff`` and ``diff * diff`` per batch — are replayed
here and the in-place versions must reproduce them **bit-identically**
(``np.array_equal`` / ``==``) on every registered workload.  So must the
parallel build and the evaluation split across solver workers.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np
import pytest

from repro import nn
from repro.api.registry import workload_names
from repro.api import OnlineTrainingConfig
from repro.nn.tensor import Tensor
from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.sampling.halton import halton_in_bounds
from repro.solvers.base import Solver
from repro.solvers.heat2d import Heat2DConfig
from repro.surrogate.model import DirectSurrogate
from repro.surrogate.validation import (
    ValidationSet,
    build_validation_set,
    validation_loss,
    validation_set_for_workload,
)

WORKLOADS = workload_names()


def reference_build(solver, bounds, scalers, n_trajectories):
    """The historical ``build_validation_set`` body, verbatim."""
    vectors = halton_in_bounds(n_trajectories, bounds, skip=1, rng=None, scramble=False)
    inputs = []
    targets = []
    for params in vectors:
        for timestep, field in enumerate(solver.steps(params)):
            inputs.append(scalers.encode_input(params, timestep))
            targets.append(scalers.encode_output(field))
    return np.stack(inputs, axis=0), np.stack(targets, axis=0), vectors


def reference_loss(model, validation_set, batch_size=1024):
    """The historical ``validation_loss`` body, verbatim."""
    total = 0.0
    count = 0
    with nn.no_grad():
        for start in range(0, len(validation_set), batch_size):
            stop = min(start + batch_size, len(validation_set))
            prediction = model(Tensor(validation_set.inputs[start:stop]))
            diff = prediction.data - validation_set.targets[start:stop]
            total += float(np.sum(diff * diff))
            count += diff.size
    return total / count if count else float("nan")


def _workload(name: str):
    config = OnlineTrainingConfig(workload=name, heat=Heat2DConfig(grid_size=6, n_timesteps=5))
    return config.build_workload()


@pytest.mark.parametrize("name", WORKLOADS)
def test_build_is_bit_identical_on_every_workload(name):
    workload = _workload(name)
    built = validation_set_for_workload(workload, 3)
    inputs, targets, vectors = reference_build(
        workload.build_solver(), workload.bounds, workload.build_scalers(), 3
    )
    assert built.inputs.dtype == built.targets.dtype == np.float64
    assert np.array_equal(built.inputs, inputs)
    assert np.array_equal(built.targets, targets)
    assert np.array_equal(built.parameters, vectors)
    assert built.n_trajectories == 3
    assert built.n_timesteps == workload.n_timesteps
    assert len(built) == 3 * (workload.n_timesteps + 1)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("batch_size", [1024, 7], ids=["one-batch", "ragged-last-batch"])
def test_loss_is_bit_identical_on_every_workload(name, batch_size):
    workload = _workload(name)
    validation_set = validation_set_for_workload(workload, 3)
    assert len(validation_set) % 7 != 0
    model = DirectSurrogate(
        workload.surrogate_config(hidden_size=8, n_hidden_layers=2, activation="relu"),
        workload.build_scalers(),
        rng=np.random.default_rng(2),
    )
    assert validation_loss(model, validation_set, batch_size) == reference_loss(
        model, validation_set, batch_size
    )


def _square_set(rows: int = 11, width: int = 6) -> ValidationSet:
    rng = np.random.default_rng(0)
    return ValidationSet(
        inputs=rng.random((rows, width)),
        targets=rng.random((rows, width)),
        parameters=rng.random((1, width - 1)),
        n_trajectories=1,
        n_timesteps=rows - 1,
    )


def test_identity_model_does_not_mutate_the_inputs():
    """``nn.Identity`` hands back a view of ``inputs``: it must stay read-only."""
    validation_set = _square_set()
    inputs, targets = validation_set.inputs.copy(), validation_set.targets.copy()
    model = nn.Identity()
    assert validation_loss(model, validation_set, batch_size=4) == reference_loss(
        model, validation_set, batch_size=4
    )
    assert np.array_equal(validation_set.inputs, inputs)
    assert np.array_equal(validation_set.targets, targets)


class _ParameterEcho(nn.Module):
    """Returns (a view of) its own parameter, whatever the input."""

    def __init__(self, as_view: bool) -> None:
        super().__init__()
        self.weight = nn.Parameter(np.random.default_rng(1).random((4, 6)))
        self.as_view = as_view

    def forward(self, x: Tensor) -> Tensor:
        if len(x) < 4 or self.as_view:
            return self.weight[: len(x)]
        return self.weight


@pytest.mark.parametrize("as_view", [False, True], ids=["the-parameter", "a-view-of-it"])
def test_model_returning_a_parameter_does_not_mutate_it(as_view):
    validation_set = _square_set()
    model = _ParameterEcho(as_view)
    kept = model.weight.data.copy()
    assert validation_loss(model, validation_set, batch_size=4) == reference_loss(
        model, validation_set, batch_size=4
    )
    assert np.array_equal(model.weight.data, kept)


class _Layout(nn.Module):
    """A linear map whose output is Fortran-ordered, or broadcasts against the targets."""

    def __init__(self, kind: str) -> None:
        super().__init__()
        self.kind = kind
        self.weight = nn.Parameter(np.random.default_rng(6).random((6, 6)))

    def forward(self, x: Tensor) -> Tensor:
        out = x.data @ self.weight.data
        if self.kind == "fortran":
            return Tensor(np.asfortranarray(out))
        return Tensor(out[:, :1].copy())


@pytest.mark.parametrize("kind", ["fortran", "broadcast"])
def test_predictions_of_another_layout_take_a_fresh_array(kind):
    validation_set = _square_set(rows=37)
    model = _Layout(kind)
    assert validation_loss(model, validation_set, batch_size=16) == reference_loss(
        model, validation_set, batch_size=16
    )


def test_empty_set_is_nan():
    empty = ValidationSet(np.empty((0, 6)), np.empty((0, 9)), np.empty((0, 5)), 0, 4)
    assert np.isnan(validation_loss(nn.Identity(), empty))


class _MiscountingSolver(Solver):
    """Claims ``n_timesteps`` steps, yields ``n_fields`` fields."""

    def __init__(self, n_timesteps: int, n_fields: int) -> None:
        self.n_timesteps = n_timesteps
        self.n_fields = n_fields

    @property
    def field_size(self) -> int:
        return 4

    @property
    def parameter_dim(self) -> int:
        return 5

    def steps(self, parameters) -> Iterator[np.ndarray]:
        for index in range(self.n_fields):
            yield np.full(4, 100.0 + index)


@pytest.mark.parametrize("n_fields", [3, 6], ids=["too-few", "too-many"])
def test_wrong_number_of_fields_is_a_named_error(n_fields, tiny_scalers):
    solver = _MiscountingSolver(n_timesteps=4, n_fields=n_fields)
    with pytest.raises(ValueError, match=rf"_MiscountingSolver\.steps yielded {n_fields} fields.*requires 5"):
        build_validation_set(solver, HEAT2D_BOUNDS, tiny_scalers, n_trajectories=2)


# ---------------------------------------------------------------------------
# Parallel build: solver workers fill the shared arrays, the serial build is
# the oracle.  Built on explicit pools, so the size rule does not apply.
# ---------------------------------------------------------------------------


def _parallel_build(solver, bounds, scalers, n_trajectories, n_workers):
    from repro.melissa.workers import SolverWorkers
    from repro.surrogate.validation import validation_set_floats

    workers = SolverWorkers(
        solver,
        array_floats=validation_set_floats(solver, n_trajectories),
        n_workers=n_workers,
    )
    try:
        return build_validation_set(solver, bounds, scalers, n_trajectories, workers=workers)
    finally:
        workers.close()


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize(
    "n_trajectories, n_workers",
    [(4, 2), (5, 3), (2, 3)],
    ids=["even-shares", "ragged-last-share", "a-worker-without-a-share"],
)
def test_parallel_build_is_bit_identical_on_every_workload(name, n_trajectories, n_workers):
    workload = _workload(name)
    solver, scalers = workload.build_solver(), workload.build_scalers()
    serial = build_validation_set(solver, workload.bounds, scalers, n_trajectories)
    parallel = _parallel_build(solver, workload.bounds, scalers, n_trajectories, n_workers)
    assert np.array_equal(parallel.inputs, serial.inputs)
    assert np.array_equal(parallel.targets, serial.targets)
    assert np.array_equal(parallel.parameters, serial.parameters)
    assert (parallel.n_trajectories, parallel.n_timesteps) == (serial.n_trajectories, serial.n_timesteps)
    model = DirectSurrogate(
        workload.surrogate_config(hidden_size=8, n_hidden_layers=1, activation="relu"),
        scalers,
        rng=np.random.default_rng(2),
    )
    assert validation_loss(model, parallel, 7) == validation_loss(model, serial, 7)


@pytest.mark.parametrize("n_fields", [3, 6], ids=["too-few", "too-many"])
def test_parallel_build_raises_the_workers_miscount_by_name(n_fields, tiny_scalers):
    solver = _MiscountingSolver(n_timesteps=4, n_fields=n_fields)
    with pytest.raises(ValueError, match=rf"_MiscountingSolver\.steps yielded {n_fields} fields.*requires 5"):
        _parallel_build(solver, HEAT2D_BOUNDS, tiny_scalers, n_trajectories=3, n_workers=2)


def test_parallel_build_needs_an_arena_that_fits(tiny_solver, tiny_scalers):
    from repro.melissa.workers import SolverWorkers

    workers = SolverWorkers(tiny_solver, array_floats=10, n_workers=1)
    try:
        with pytest.raises(ValueError, match="shared arena of 10 floats cannot hold"):
            build_validation_set(tiny_solver, HEAT2D_BOUNDS, tiny_scalers, 2, workers=workers)
    finally:
        workers.close()


# ---------------------------------------------------------------------------
# Split evaluation: solver workers sum the squared errors of contiguous runs
# of batches where the set lies, the serial evaluation is the oracle (==).
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _pool(solver, validation_set=None, n_workers=2, arena_trajectories=0):
    """Workers that inherit ``validation_set``, or whose arena holds a set to build."""
    from repro.melissa.workers import SolverWorkers
    from repro.surrogate.validation import validation_set_floats

    inherit = () if validation_set is None else (validation_set.inputs, validation_set.targets)
    workers = SolverWorkers(
        solver,
        array_floats=validation_set_floats(solver, arena_trajectories),
        n_workers=n_workers,
        inherit=inherit,
    )
    try:
        yield workers
    finally:
        workers.close()


def _split_loss(model, validation_set, batch_size, workers):
    """``validation_loss`` on ``workers``, and the share count of every dispatch it made."""
    dispatched = []
    run = workers.run

    def counted(function, shares):
        dispatched.append(len(shares))
        return run(function, shares)

    workers.run = counted
    try:
        return validation_loss(model, validation_set, batch_size, workers=workers), dispatched
    finally:
        del workers.run


def _model(workload, architecture="mlp", seed=2):
    return DirectSurrogate(
        workload.surrogate_config(hidden_size=8, n_hidden_layers=2, activation="relu",
                                  architecture=architecture),
        workload.build_scalers(),
        rng=np.random.default_rng(seed),
    )


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("where", ["arena", "inherited"])
def test_split_loss_is_bit_identical_on_every_workload(name, n_workers, where):
    workload = _workload(name)
    solver = workload.build_solver()
    serial_set = validation_set_for_workload(workload, 3, solver=solver)
    model = _model(workload)
    assert len(serial_set) >= 3 * 4  # batches of 4: at least one per worker
    expected = reference_loss(model, serial_set, 4)
    assert validation_loss(model, serial_set, 4) == expected
    if where == "inherited":
        with _pool(solver, serial_set, n_workers) as workers:
            loss, dispatched = _split_loss(model, serial_set, 4, workers)
    else:
        with _pool(solver, n_workers=n_workers, arena_trajectories=3) as workers:
            built = validation_set_for_workload(workload, 3, solver=solver, workers=workers)
            loss, dispatched = _split_loss(model, built, 4, workers)
    assert loss == expected
    assert dispatched == [n_workers]


@pytest.mark.parametrize(
    "batch_size, shares",
    [(7, [3]), (10, [2]), (4, [3]), (1024, [])],
    ids=["ragged-last-batch", "fewer-batches-than-workers", "several-batches-a-share", "one-batch-inline"],
)
def test_split_loss_shares_contiguous_runs_of_batches(batch_size, shares):
    workload = _workload("heat2d")
    validation_set = validation_set_for_workload(workload, 3)
    model = _model(workload)
    with _pool(workload.build_solver(), validation_set, n_workers=3) as workers:
        loss, dispatched = _split_loss(model, validation_set, batch_size, workers)
    assert loss == reference_loss(model, validation_set, batch_size)
    assert dispatched == shares


@pytest.mark.parametrize("architecture", ["residual", "conv2d"])
def test_split_loss_is_bit_identical_for_every_architecture(architecture):
    workload = _workload("heat2d")
    validation_set = validation_set_for_workload(workload, 3)
    model = _model(workload, architecture)
    with _pool(workload.build_solver(), validation_set) as workers:
        loss, dispatched = _split_loss(model, validation_set, 5, workers)
    assert loss == reference_loss(model, validation_set, 5)
    assert dispatched == [2]


@pytest.mark.parametrize(
    "model",
    [nn.Identity(), _ParameterEcho(as_view=False), _ParameterEcho(as_view=True)],
    ids=["identity", "the-parameter", "a-view-of-it"],
)
def test_split_loss_leaves_the_shared_set_alone(model, tiny_solver):
    """Predictions that are views of the inputs or a parameter take a fresh array on workers too.

    A worker that overwrote its copy of a parameter would corrupt its later
    batches' predictions, so the loss catches that; the arena is checked directly.
    """
    validation_set = _square_set()
    inputs, targets = validation_set.inputs.copy(), validation_set.targets.copy()
    with _pool(tiny_solver, n_workers=2, arena_trajectories=2) as workers:
        # the set in the shared arena: a worker's write there would reach this process
        (_, shared_inputs), (_, shared_targets) = workers.allocate(inputs.shape), workers.allocate(targets.shape)
        shared_inputs[:], shared_targets[:] = inputs, targets
        shared = ValidationSet(shared_inputs, shared_targets, validation_set.parameters, 1, 10)
        loss, dispatched = _split_loss(model, shared, 4, workers)
    assert loss == reference_loss(model, validation_set, 4)
    assert dispatched == [2]
    assert np.array_equal(shared.inputs, inputs) and np.array_equal(shared.targets, targets)


def test_a_set_the_workers_cannot_reach_is_evaluated_inline(tiny_solver):
    workload = _workload("heat2d")
    validation_set = validation_set_for_workload(workload, 3)
    model = _model(workload)
    expected = reference_loss(model, validation_set, 4)
    with _pool(tiny_solver, n_workers=2) as workers:  # inherits nothing
        assert workers.handle(validation_set.inputs) is None
        assert _split_loss(model, validation_set, 4, workers) == (expected, [])
    with _pool(tiny_solver, validation_set, n_workers=2) as workers:
        assert workers.handle(validation_set.inputs) is not None
    assert workers.handle(validation_set.inputs) is None  # closed
    assert _split_loss(model, validation_set, 4, workers) == (expected, [])


def test_a_model_that_does_not_pickle_is_evaluated_inline(tiny_solver):
    class Local(nn.Module):  # a class local to a function does not pickle
        def forward(self, x: Tensor) -> Tensor:
            return Tensor(x.data * 2.0)

    validation_set = _square_set()
    with _pool(tiny_solver, validation_set, n_workers=2) as workers:
        loss = _split_loss(Local(), validation_set, 4, workers)
    assert loss == (reference_loss(Local(), validation_set, 4), [])
