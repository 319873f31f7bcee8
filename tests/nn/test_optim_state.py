"""Adam ``state_dict``/``load_state_dict`` round-trips.

The session checkpointing contract needs optimizers to restore *exactly*:
after save → load, training one more step must produce bit-identical weights
to never having serialized at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor


def _model(seed: int = 0) -> nn.Sequential:
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU(), nn.Linear(8, 2, rng=rng))


def _train_steps(model: nn.Module, optimizer, n_steps: int, seed: int = 1) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(n_steps):
        x = Tensor(rng.normal(size=(8, 4)))
        y = Tensor(rng.normal(size=(8, 2)))
        model.zero_grad()
        loss = nn.functional.mse_loss(model(x), y)
        loss.backward()
        optimizer.step()


def _weights(model: nn.Module) -> dict:
    return {k: v.copy() for k, v in model.state_dict().items()}


@pytest.mark.parametrize("factory", [lambda params: Adam(params, lr=1e-3)], ids=["adam"])
def test_save_load_train_one_step_equivalence(factory):
    """Continuous training == save → load into fresh optimizer → train."""
    continuous_model = _model()
    continuous_opt = factory(continuous_model.parameters())
    _train_steps(continuous_model, continuous_opt, 5, seed=1)
    _train_steps(continuous_model, continuous_opt, 1, seed=2)

    restored_model = _model()
    warmup_opt = factory(restored_model.parameters())
    _train_steps(restored_model, warmup_opt, 5, seed=1)
    state = warmup_opt.state_dict()
    fresh_opt = factory(restored_model.parameters())
    fresh_opt.load_state_dict(state)
    _train_steps(restored_model, fresh_opt, 1, seed=2)

    assert fresh_opt.step_count == continuous_opt.step_count == 6
    for key, value in _weights(continuous_model).items():
        np.testing.assert_array_equal(_weights(restored_model)[key], value)


def test_adam_state_dict_layout():
    """Session snapshots store exactly these keys; the layout is a resume contract."""
    model = _model()
    optimizer = Adam(model.parameters(), lr=1e-3)
    _train_steps(model, optimizer, 2)
    state = optimizer.state_dict()
    assert set(state) == {"step_count", "m", "v"}
    assert state["step_count"] == 2
    shapes = [p.data.shape for p in optimizer.parameters]
    assert [m.shape for m in state["m"]] == [v.shape for v in state["v"]] == shapes


def test_adam_moment_buffers_roundtrip():
    model = _model()
    optimizer = Adam(model.parameters(), lr=1e-3)
    _train_steps(model, optimizer, 4)
    state = optimizer.state_dict()
    assert state["step_count"] == 4
    fresh = Adam(model.parameters(), lr=1e-3)
    fresh.load_state_dict(state)
    for got_m, src_m, got_v, src_v in zip(fresh._m, optimizer._m, fresh._v, optimizer._v):
        np.testing.assert_array_equal(got_m, src_m)
        np.testing.assert_array_equal(got_v, src_v)
    # the state holds copies: training the source must not mutate it
    _train_steps(model, optimizer, 1)
    np.testing.assert_array_equal(fresh._m[0], state["m"][0])


def test_adam_length_mismatch_rejected():
    state = Adam(_model().parameters(), lr=1e-3).state_dict()
    small = nn.Linear(2, 2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="parameters"):
        Adam(small.parameters(), lr=1e-3).load_state_dict(state)
