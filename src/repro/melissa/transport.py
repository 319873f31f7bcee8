"""Volume accounting of the client → server data stream.

The real Melissa deployment connects clients to the server over ZeroMQ; the
reproduction hands produced row blocks straight to the session.  The
transport only records how many time steps and bytes would have crossed the
network, so the framework-overhead benchmark can report that volume (and,
for the off-line comparison, how many bytes would have been written to disk
instead).  Nothing is queued here, so nothing can be dropped.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro import telemetry

__all__ = ["InProcessTransport"]


class InProcessTransport:
    """Time-step and byte counters of the data channel (clients → server).

    The two integers are the canonical record, snapshotted by the session;
    the telemetry series ``repro_transport_{messages,bytes}_total{channel="data"}``
    mirror them.
    """

    def __init__(self) -> None:
        self.n_messages = 0
        self.n_bytes = 0
        registry = telemetry.metrics()
        self._m_messages = registry.counter(
            "repro_transport_messages_total", help="time steps accounted per channel"
        ).labels(channel="data")
        self._m_bytes = registry.counter(
            "repro_transport_bytes_total", help="payload bytes accounted per channel"
        ).labels(channel="data")

    def account_batch(self, rows: np.ndarray, parameters: np.ndarray) -> None:
        """Account one client's block of time steps (one row each) sent with its ``parameters``.

        A time step costs its field, the parameter vector and 16 bytes of
        header (simulation id and time step).
        """
        n_bytes = rows.nbytes + len(rows) * (parameters.nbytes + 16)
        self.n_messages += len(rows)
        self.n_bytes += n_bytes
        self._m_messages.inc(len(rows))
        self._m_bytes.inc(n_bytes)

    # ---------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, List[Dict[str, object]]]:
        """The counters as the one ``data`` channel.

        Older snapshots also list ``steering`` and ``jobs`` channels and zero
        queue counters, none of which ever carried anything; loading skips them.
        """
        return {"channels": [{"name": "data", "n_messages": self.n_messages, "n_bytes": self.n_bytes}]}

    def load_state_dict(self, state: Dict[str, List[Dict[str, object]]]) -> None:
        (data,) = (channel for channel in state["channels"] if channel["name"] == "data")
        self.n_messages = int(data["n_messages"])  # type: ignore[call-overload]
        self.n_bytes = int(data["n_bytes"])  # type: ignore[call-overload]
