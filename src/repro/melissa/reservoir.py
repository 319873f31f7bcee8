"""The reservoir: the server's bounded training buffer (Appendix A).

Behaviour reproduced from the paper and [Meyer et al., SC'23]:

* newly received samples are stored in the buffer; once the buffer is full
  they replace *already-seen* entries chosen at random,
* if every buffered sample is still unseen (the trainer has not consumed them
  yet), incoming data is not stored: it waits with the sender and the client
  executions are paused temporarily — this is the back-pressure that
  prevents training data from being dropped before ever being used,
* training does not start before the buffer holds at least ``watermark``
  unique samples,
* training batches are drawn uniformly at random from the buffer, so each
  sample can be reused by several batches (the per-entry ``seen_count`` makes
  that reuse measurable).

Storage is struct-of-arrays: inputs, targets, ids, timesteps and seen-counts
live in preallocated contiguous arrays, so the per-batch hot path
(:meth:`Reservoir.sample_batch`) is a fancy-indexed gather plus one vectorised
seen-count increment instead of a Python loop over entry objects — measured
severalfold faster at paper-scale batch sizes (see ``docs/PERFORMANCE.md``)
and bit-identical: the RNG call sequence and every stored float are unchanged.

The rows (inputs and targets, 131 MB at the paper preset) are held once:
:meth:`Reservoir.state_dict` exports read-only views of the live buffer and
:meth:`Reservoir.load_state_dict` adopts a full loaded block as its buffer.
One rule keeps both safe: the reservoir never writes into row memory that
anything else can reach.  Every array derived from a buffer references the
array that owns its memory, so :meth:`Reservoir._store` counts those
references and, when another holder is alive, first swaps in a private copy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import telemetry

__all__ = ["ReservoirEntry", "ReservoirBatch", "Reservoir"]


def _owner_refs(rows: np.ndarray) -> int:
    """References to the array that owns the memory of ``rows``, a view of it."""
    return sys.getrefcount(rows.base)


#: what :func:`_owner_refs` reads for a buffer held through one view and
#: nothing else; measured, because the interpreter's own count differs
#: between Python versions
_PRIVATE_REFS = _owner_refs(np.empty(1).view())


def _unshared(rows: np.ndarray) -> np.ndarray:
    """``rows``, or a private copy of them while anything else views their memory (copy on write)."""
    return rows if _owner_refs(rows) <= _PRIVATE_REFS else rows.copy().view()


def _adoptable(rows: object, shape: Tuple[int, int]) -> bool:
    """Whether ``rows`` can become a buffer as it is.

    It must be a writeable, C-ordered float64 block of ``shape`` that owns
    its memory or views an array that does (as ``np.load`` hands them out).
    """
    if not isinstance(rows, np.ndarray) or rows.shape != shape or rows.dtype != np.float64:
        return False
    owner = rows if rows.base is None else rows.base
    return (
        rows.flags.c_contiguous
        and rows.flags.writeable
        and isinstance(owner, np.ndarray)
        and owner.flags.owndata
    )


@dataclass
class ReservoirEntry:
    """One buffered training sample (already normalised for the NN)."""

    simulation_id: int
    timestep: int
    x: np.ndarray
    y: np.ndarray
    seen_count: int = 0

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64).reshape(-1)
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)


@dataclass
class ReservoirBatch:
    """A training batch assembled from reservoir entries."""

    inputs: np.ndarray
    targets: np.ndarray
    simulation_ids: np.ndarray
    timesteps: np.ndarray

    def __len__(self) -> int:
        return self.inputs.shape[0]


class Reservoir:
    """Bounded random-replacement buffer with a training watermark.

    Parameters
    ----------
    capacity:
        Maximum number of buffered samples (the bounded-memory guarantee).
    watermark:
        Training is gated until this many samples have been buffered.
    rng:
        Generator used for eviction victims and batch draws; shared with the
        session's ``"reservoir"`` stream so runs stay deterministic.
    """

    def __init__(self, capacity: int, watermark: int, rng: np.random.Generator) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if watermark < 1:
            raise ValueError("watermark must be >= 1")
        if watermark > capacity:
            raise ValueError("watermark cannot exceed capacity")
        self.capacity = capacity
        self.watermark = watermark
        self._rng = rng
        # Struct-of-arrays storage; the payload arrays are allocated lazily on
        # the first put() (their width is the workload's encoding dimension).
        # They are always views of the array that owns their memory, so the
        # references to that owner are the buffer's own view plus any other.
        self._n = 0
        self._xs: Optional[np.ndarray] = None
        self._ys: Optional[np.ndarray] = None
        self._simulation_ids = np.zeros(capacity, dtype=np.int64)
        self._timesteps = np.zeros(capacity, dtype=np.int64)
        self._seen = np.zeros(capacity, dtype=np.int64)
        # --- statistics
        self.n_received = 0
        #: always 0 (put never drops a row); kept in the summary and snapshot layout
        self.n_rejected = 0
        self.n_evicted = 0
        self.n_batches = 0
        # --- telemetry mirrors (observation only; no-ops unless enabled)
        # The ingest/evict mirrors are synced as deltas of the canonical totals
        # at draw time rather than incremented inline (sync_metrics), keeping
        # the ingest path free of telemetry calls entirely.
        registry = telemetry.metrics()
        self._m_ingest = registry.counter(
            "repro_reservoir_ingest_total", help="samples stored in the reservoir"
        )
        self._m_evicted = registry.counter(
            "repro_reservoir_evicted_total", help="entries replaced by reservoir sampling"
        )
        self._synced_received = 0
        self._synced_evicted = 0
        self._m_draws = registry.counter(
            "repro_reservoir_draws_total", help="training batches drawn"
        )
        self._m_drawn_samples = registry.counter(
            "repro_reservoir_drawn_samples_total", help="samples gathered into training batches"
        )

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return self._n

    @property
    def is_full(self) -> bool:
        return self._n >= self.capacity

    @property
    def ready_for_training(self) -> bool:
        """True once the watermark has been reached at least once."""
        return self._n >= self.watermark

    def seen_counts(self) -> np.ndarray:
        """Per-entry consumption counts (copy, in buffer order)."""
        return self._seen[: self._n].copy()

    def entries(self) -> Sequence[ReservoirEntry]:
        """Read-only snapshot of the buffered entries (used by tests/analysis).

        Payloads are copied: a snapshot must stay internally consistent even
        when a later eviction overwrites the underlying buffer row.
        """
        return tuple(
            ReservoirEntry(
                simulation_id=int(self._simulation_ids[i]),
                timestep=int(self._timesteps[i]),
                x=self._xs[i].copy(),
                y=self._ys[i].copy(),
                seen_count=int(self._seen[i]),
            )
            for i in range(self._n)
        )

    @property
    def room(self) -> int:
        """How many rows :meth:`put` would store now: the free slots and the seen entries."""
        return self.capacity - self._n + int(np.count_nonzero(self._seen[: self._n]))

    def can_accept(self) -> bool:
        """Whether :meth:`put` would store a new sample."""
        return self.room > 0

    # ---------------------------------------------------------------- writes
    def _allocate(self, x_dim: int, y_dim: int) -> None:
        self._xs = np.empty((self.capacity, x_dim), dtype=np.float64).view()
        self._ys = np.empty((self.capacity, y_dim), dtype=np.float64).view()

    def put(self, simulation_ids: np.ndarray, timesteps: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> int:
        """Store rows, in order, while :meth:`can_accept` holds.

        Row ``i`` of ``xs``/``ys`` is time step ``timesteps[i]`` of simulation
        ``simulation_ids[i]``.  Free
        slots fill first; once full, each further row replaces a random
        already-seen entry (one RNG draw per row, over the seen entries as
        they are at that row).  Returns how many leading rows were stored
        (at most :attr:`room`): a buffer full of unseen entries stores no
        more, and the caller keeps the rest (clients must pause).
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if self._xs is None:
            self._allocate(xs.shape[1], ys.shape[1])
        assert self._xs is not None and self._ys is not None
        if xs.shape[1] != self._xs.shape[1] or ys.shape[1] != self._ys.shape[1]:
            raise ValueError(
                f"sample dimensions ({xs.shape[1]}, {ys.shape[1]}) do not match the "
                f"buffer layout ({self._xs.shape[1]}, {self._ys.shape[1]})"
            )
        ids = np.asarray(simulation_ids, dtype=np.int64)
        steps = np.asarray(timesteps, dtype=np.int64)
        stored = min(len(xs), self.capacity - self._n)
        self._store(slice(self._n, self._n + stored), ids[:stored], steps[:stored], xs[:stored], ys[:stored])
        self._n += stored
        if stored < len(xs):
            # One scan per put: a victim becomes unseen, so popping it from
            # the (sorted) seen list leaves exactly what a rescan would find,
            # and ``integers(len(seen))`` is the draw ``Generator.choice(seen)``
            # makes: victims and RNG state are those of a per-row choice.
            seen = np.flatnonzero(self._seen[: self._n] > 0).tolist()
            victims = [
                seen.pop(int(self._rng.integers(len(seen))))
                for _ in range(min(len(xs) - stored, len(seen)))
            ]
            end = stored + len(victims)
            self._store(victims, ids[stored:end], steps[stored:end], xs[stored:end], ys[stored:end])
            self.n_evicted += len(victims)
            stored = end
        self.n_received += stored
        return stored

    def _store(self, index, simulation_ids, timesteps, xs: np.ndarray, ys: np.ndarray) -> None:
        """Write entries at ``index`` (a slice or a list of distinct slots, one row each), unseen."""
        assert self._xs is not None and self._ys is not None
        # a view exported by state_dict, or the caller's array adopted by
        # load_state_dict, must not see these rows change
        self._xs = _unshared(self._xs)
        self._ys = _unshared(self._ys)
        self._xs[index] = xs
        self._ys[index] = ys
        self._simulation_ids[index] = simulation_ids
        self._timesteps[index] = timesteps
        self._seen[index] = 0

    # ---------------------------------------------------------------- reads
    def sample_batch(self, batch_size: int) -> Optional[ReservoirBatch]:
        """Draw a uniform random batch (without replacement within the batch).

        Returns ``None`` while the watermark has not been reached or when the
        buffer is empty.  When the buffer holds fewer samples than
        ``batch_size`` the whole buffer is returned (shuffled).  The gather is
        a single fancy-indexing pass over the contiguous buffer arrays.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.ready_for_training or self._n == 0:
            return None
        n = self._n
        take = min(batch_size, n)
        indices = self._rng.choice(n, size=take, replace=False)
        assert self._xs is not None and self._ys is not None
        xs = self._xs[indices]
        ys = self._ys[indices]
        sim_ids = self._simulation_ids[indices]
        steps = self._timesteps[indices]
        # Indices are unique (replace=False), so a vectorised += is exact.
        self._seen[indices] += 1
        self.n_batches += 1
        self._m_draws.inc()
        self._m_drawn_samples.inc(take)
        self.sync_metrics()
        return ReservoirBatch(inputs=xs, targets=ys, simulation_ids=sim_ids, timesteps=steps)

    def sync_metrics(self) -> None:
        """Push the ingest/evict totals into the telemetry mirrors.

        Called after every batch draw (and by the session on completion), so
        the registry converges on the canonical totals without a telemetry
        call in the ``put`` path.
        """
        if self.n_received != self._synced_received:
            self._m_ingest.inc(self.n_received - self._synced_received)
            self._synced_received = self.n_received
        if self.n_evicted != self._synced_evicted:
            self._m_evicted.inc(self.n_evicted - self._synced_evicted)
            self._synced_evicted = self.n_evicted

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Full buffer content and counters (entries stacked into arrays).

        ``xs``/``ys`` are read-only views of the live buffer, not copies; the
        next write swaps in a private copy while any of them is alive, so
        they never change.  The small arrays are copies.
        """
        n = self._n
        state: dict = {
            "capacity": self.capacity,
            "watermark": self.watermark,
            "n_entries": n,
            "n_received": self.n_received,
            "n_rejected": self.n_rejected,
            "n_evicted": self.n_evicted,
            "n_batches": self.n_batches,
        }
        if n:
            assert self._xs is not None and self._ys is not None
            state["simulation_ids"] = self._simulation_ids[:n].copy()
            state["timesteps"] = self._timesteps[:n].copy()
            state["seen_counts"] = self.seen_counts()
            state["xs"] = self._xs[:n]
            state["ys"] = self._ys[:n]
            state["xs"].flags.writeable = False
            state["ys"].flags.writeable = False
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore the buffer in entry order (eviction indices depend on it).

        A full reservoir's ``xs``/``ys`` are adopted as the buffer when
        :func:`_adoptable`, as a snapshot's freshly loaded rows are; otherwise
        they are copied into a new one.  Either way the state's arrays never
        change: an adopted array that its caller still holds is copied before
        the next write.
        """
        if int(state["capacity"]) != self.capacity or int(state["watermark"]) != self.watermark:
            raise ValueError(
                "reservoir geometry mismatch: state has "
                f"capacity={state['capacity']}/watermark={state['watermark']}, "
                f"reservoir has {self.capacity}/{self.watermark}"
            )
        self.n_received = int(state["n_received"])
        self.n_rejected = int(state["n_rejected"])
        self.n_evicted = int(state["n_evicted"])
        self.n_batches = int(state["n_batches"])
        n = int(state["n_entries"])
        self._n = n
        if n == 0:
            return
        # A snapshot's reservoir is most of its bytes (125 MiB at the paper
        # preset): its rows are adopted, or copied once, straight into the buffer.
        xs, ys = state["xs"], state["ys"]
        x_dim, y_dim = np.shape(xs)[1], np.shape(ys)[1]
        if _adoptable(xs, (self.capacity, x_dim)) and _adoptable(ys, (self.capacity, y_dim)):
            self._xs, self._ys = xs.view(), ys.view()
        else:
            self._allocate(x_dim, y_dim)
            assert self._xs is not None and self._ys is not None
            self._xs[:n] = xs
            self._ys[:n] = ys
        self._simulation_ids[:n] = np.asarray(state["simulation_ids"], dtype=np.int64)
        self._timesteps[:n] = np.asarray(state["timesteps"], dtype=np.int64)
        self._seen[:n] = np.asarray(state["seen_counts"], dtype=np.int64)

    # ------------------------------------------------------------- analysis
    def reuse_statistics(self) -> Tuple[float, int]:
        """Mean and maximum seen-count over the current buffer content."""
        if self._n == 0:
            return 0.0, 0
        counts = self._seen[: self._n]
        return float(counts.mean()), int(counts.max())

    def summary(self) -> dict[str, float]:
        mean_reuse, max_reuse = self.reuse_statistics()
        return {
            "size": float(self._n),
            "capacity": float(self.capacity),
            "received": float(self.n_received),
            "rejected": float(self.n_rejected),
            "evicted": float(self.n_evicted),
            "batches": float(self.n_batches),
            "mean_reuse": mean_reuse,
            "max_reuse": float(max_reuse),
        }
