"""Volume accounting of the client → server data stream (``InProcessTransport``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.melissa.transport import InProcessTransport

#: the layout snapshots before schema 3 wrote: two idle channels beside the
#: data channel, and zero queue counters in each
OLD_LAYOUT = {"channels": [
    {"name": "data", "maxsize": 0, "n_messages": 7, "n_bytes": 7 * 184, "max_depth": 0, "n_dropped": 0},
    {"name": "steering", "maxsize": 0, "n_messages": 0, "n_bytes": 0, "max_depth": 0, "n_dropped": 0},
    {"name": "jobs", "maxsize": 0, "n_messages": 0, "n_bytes": 0, "max_depth": 0, "n_dropped": 0},
]}


def per_message_bytes(rows: np.ndarray, parameters: np.ndarray) -> int:
    """What a time step cost when each one was a message: its field, its parameters and 16 bytes."""
    return sum(row.nbytes + parameters.nbytes + 16 for row in rows)


class TestAccounting:
    @pytest.mark.parametrize("k, field_size, parameter_dim", [(1, 16, 5), (7, 4096, 5), (3, 64, 2)])
    def test_bytes_equal_the_per_message_sum(self, k, field_size, parameter_dim):
        rows = np.zeros((k, field_size))
        parameters = np.ones(parameter_dim)
        transport = InProcessTransport()
        transport.account_batch(rows, parameters)
        assert transport.n_bytes == per_message_bytes(rows, parameters)
        assert transport.n_bytes == k * (8 * field_size + 8 * parameter_dim + 16)
        assert transport.n_messages == k

    def test_blocks_accumulate(self):
        transport = InProcessTransport()
        blocks = [(np.zeros((3, 50)), np.ones(5)), (np.zeros((2, 50)), np.ones(5)), (np.zeros((0, 50)), np.ones(5))]
        for rows, parameters in blocks:
            transport.account_batch(rows, parameters)
        assert transport.n_messages == 5
        assert transport.n_bytes == sum(per_message_bytes(rows, params) for rows, params in blocks)

    def test_telemetry_mirrors_the_data_channel_only(self):
        telemetry.configure(metrics=True)
        try:
            transport = InProcessTransport()
            transport.account_batch(np.zeros((4, 10)), np.ones(5))
            counters = telemetry.metrics().counter_values()
        finally:
            telemetry.disable()
        assert counters['repro_transport_messages_total{channel="data"}'] == 4.0
        assert counters['repro_transport_bytes_total{channel="data"}'] == float(transport.n_bytes)
        assert not any("dropped" in name or "steering" in name or "jobs" in name for name in counters)


class TestStateLayout:
    def test_data_channel_layout_and_the_old_one_loads(self):
        transport = InProcessTransport()
        transport.account_batch(np.zeros((2, 8)), np.ones(5))
        assert transport.state_dict() == {
            "channels": [{"name": "data", "n_messages": 2, "n_bytes": 2 * (64 + 40 + 16)}]
        }
        transport.load_state_dict(OLD_LAYOUT)
        assert transport.state_dict() == {"channels": [{"name": "data", "n_messages": 7, "n_bytes": 7 * 184}]}

    def test_layout_round_trips(self):
        transport = InProcessTransport()
        transport.account_batch(np.zeros((5, 50)), np.ones(5))
        restored = InProcessTransport()
        restored.load_state_dict(transport.state_dict())
        assert restored.state_dict() == transport.state_dict()
        assert (restored.n_messages, restored.n_bytes) == (transport.n_messages, transport.n_bytes)

    def test_a_state_written_before_blocks_loads(self):
        # The layout the message-per-time-step transport wrote; the next
        # block is counted on top of it.
        transport = InProcessTransport()
        transport.load_state_dict(OLD_LAYOUT)
        transport.account_batch(np.zeros((1, 16)), np.ones(5))
        assert transport.n_messages == 8 and transport.n_bytes == 8 * 184
