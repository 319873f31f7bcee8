"""``SolverClient.produce`` blocks are the solver's own rows, inline and on a worker.

The pooled side builds its worker pool explicitly, so it runs whatever the
CPU count; under ``taskset -c 0`` the same file still covers both sides.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np
import pytest

from repro.melissa.client import SolverClient
from repro.melissa.workers import SolverWorkers

PARAMETERS = np.array([[300.0, 150.0, 450.0, 200.0, 400.0], [120.0, 480.0, 310.0, 260.0, 105.0]])

#: rows a worker reads ahead per client: shorter than the trajectory and than
#: the longer blocks below, so blocks wrap around the ring
RING_ROWS = 4


@pytest.fixture(params=["inline", "pooled"])
def workers(request, tiny_solver) -> Iterator[Optional[SolverWorkers]]:
    if request.param == "inline":
        yield None
        return
    pool = SolverWorkers(tiny_solver, ring_slots=3, ring_rows=RING_ROWS, n_workers=2)
    try:
        yield pool
    finally:
        pool.close()


def trajectory(solver, parameters) -> np.ndarray:
    return np.array(list(solver.steps(parameters)))


@pytest.mark.parametrize("max_steps", [1, 3, 5, 6, 7])
def test_blocks_are_the_solver_rows(workers, tiny_solver, max_steps):
    expected = trajectory(tiny_solver, PARAMETERS[0])
    client = SolverClient(0, PARAMETERS[0], tiny_solver, workers)
    sizes = []
    while not client.finished:
        first = client.n_produced
        block = client.produce(max_steps)
        assert block.shape == (len(block), tiny_solver.field_size) and block.dtype == np.float64
        assert np.array_equal(block, expected[first : first + len(block)])
        if workers is not None:
            assert not np.shares_memory(block, workers._ring)
        sizes.append(len(block))
    # full blocks, then the first short one (empty when the rows divide evenly) finishes
    full, rest = divmod(len(expected), max_steps)
    assert sizes == [max_steps] * full + [rest]
    assert client.n_produced == len(expected)


def test_interleaved_clients_get_their_own_rows(workers, tiny_solver):
    """Two clients consumed a block at a time in turn, like a session's ticks."""
    clients = [SolverClient(index, params, tiny_solver, workers) for index, params in enumerate(PARAMETERS)]
    for client in clients:
        client.start()
    rows = [[], []]
    while not all(client.finished for client in clients):
        for collected, client in zip(rows, clients):
            collected.extend(client.produce(3))
    for collected, params in zip(rows, PARAMETERS):
        assert np.array_equal(np.array(collected), trajectory(tiny_solver, params))


@pytest.mark.parametrize("produced", [0, 2, 5, 6])
def test_a_restored_client_resumes_with_the_solver_rows(workers, tiny_solver, produced):
    expected = trajectory(tiny_solver, PARAMETERS[1])
    original = SolverClient(1, PARAMETERS[1], tiny_solver, workers)
    original.start()
    if produced:
        assert len(original.produce(produced)) == produced
    original.close()

    resumed = SolverClient(1, PARAMETERS[1], tiny_solver, workers)
    resumed.n_produced = original.n_produced
    resumed.start()  # the solver or worker skips `produced`
    assert resumed.n_produced == produced and not resumed.finished
    assert np.array_equal(resumed.produce(5), expected[produced : produced + 5])
    assert np.array_equal(resumed.produce(5), expected[produced + 5 : produced + 10])
    assert resumed.n_produced == len(expected)
