"""Exact-equality oracle tests for the validation-set build and evaluation.

The historical implementations — one encoded array per sample, ``np.stack``
at the end; a fresh ``diff`` and ``diff * diff`` per batch — are replayed
here and the in-place versions must reproduce them **bit-identically**
(``np.array_equal`` / ``==``) on every registered workload.
"""

from __future__ import annotations

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
