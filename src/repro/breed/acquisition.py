"""Loss-deviation based acquisition metric (Section 3.1, Eqs. 4–6).

Breed needs a per-parameter-vector informativeness score ``Q_j`` that can be
computed *only* from quantities already available during training (per-sample
losses of each batch), is comparable across NN iterations, and requires
O(1) memory per seen sample.  The paper's construction:

* for every sample ``x_{j,t}`` appearing in batch ``b_i`` with per-sample loss
  ``l^{(i)}_{jt}``, compute the positive normalised deviation from the batch
  statistics (Eq. 4)::

      δ^{(i)}_{jt} = max(l^{(i)}_{jt} − μ(l^{(i)}), 0) / σ(l^{(i)})

* average the deviations across the batches the sample appeared in (the set
  ``I_{jt}``) and then across time steps (Eqs. 5–6)::

      Q_j = (1/T) Σ_t (1/|I_{jt}|) Σ_{i∈I_{jt}} δ^{(i)}_{jt}

Both averages are maintained incrementally ("Not to store all the values, we
iteratively update the statistic upon the availability of new values"), as
columns.  :func:`loss_deviations` is Eq. 4 for a whole batch, called once per
batch by the training server.  :class:`LossDeviationTracker` keeps, in row
``j`` for simulation ``j``, its last-update order (the AMIS window's recency)
and, per time step in first-seen order, the Eq. 5 running mean and count;
``Q_j`` is ``np.mean`` of those means, so ``T`` counts the time steps seen so
far.  It keeps statistics only: the parameter vector ``λ_j`` is the
launcher's, and the AMIS window reads it there by id.  A batch is only
queued when it arrives; the first read folds the queue, sample by sample in
arrival order, so the statistics are paid for at steerings, not once per
batch.  Bit-identical resumes depend on three choices: that first-seen order
(the order ``Q_j`` sums in, and the order snapshots store), ``σ`` with
``ddof=0``, and the floor ``ε`` = 1e-12.

Snapshot schema 4 stores one record per observed simulation, in id order.
Schemas 1–3 also stored a record for every simulation never observed, and in
each record the simulation's parameters and its observation count (the sum
of its counts); the loader ignores both.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["EPSILON", "LossDeviationTracker", "loss_deviations"]

#: floor of the batch standard deviation in Eq. 4
EPSILON = 1e-12

#: one queued sample: its simulation id (its tracker row), time step and deviation ``δ``
_QUEUE = np.dtype([("row", np.int64), ("timestep", np.int64), ("deviation", np.float64)])

#: queue entries allocated at once, 48 MiB of address space: above glibc's
#: largest mmap threshold, so the queue is a mapping of its own whose pages
#: become resident only as samples are queued.  A queue grown in the heap
#: takes the free block a study worker's next validation batch would reuse
#: (+8 MB peak RSS on the benchmark's study grid).
_QUEUE_ENTRIES = 1 << 21

#: queued samples applied at once: their per-sample arrays (at most 896 bytes)
#: stay in NumPy's small-block cache.  Folding a whole steering period at once
#: takes blocks of kilobytes from the heap, which in a study worker can split
#: the free block its next validation batch would reuse (+8 MB peak RSS on the
#: benchmark's study grid).
_FOLD_SAMPLES = 112


def loss_deviations(sample_losses: Sequence[float]) -> Tuple[float, float, np.ndarray]:
    """Eq. 4 for one batch: its loss mean ``μ``, std ``σ`` and every sample's ``δ``."""
    losses = np.asarray(sample_losses, dtype=np.float64)
    mean = float(losses.mean())
    std = float(losses.std())
    deviations = np.maximum(losses - mean, 0.0) / (std if std > EPSILON else EPSILON)
    return mean, std, deviations


def _grown(column: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``column`` copied into the leading corner of a zeroed array of ``shape``."""
    out = np.zeros(shape, dtype=column.dtype)
    out[tuple(slice(0, n) for n in column.shape)] = column
    return out


def _runs(*sorted_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each run of equal key tuples starts, and each element's index in its run."""
    head = np.ones(len(sorted_keys[0]), dtype=bool)
    head[1:] = sorted_keys[0][1:] != sorted_keys[0][:-1]
    for key in sorted_keys[1:]:
        head[1:] |= key[1:] != key[:-1]
    index = np.arange(head.size)
    return head, index - np.maximum.accumulate(np.where(head, index, 0))


class LossDeviationTracker:
    """Maintains ``Q_j`` for every simulation whose samples were trained on.

    Row ``j`` of every column is simulation ``j``.  Its slots (``_steps``,
    ``_means``, ``_counts``) fill from the left in first-seen order; a slot is
    in use while its count is positive, so a row's observation count is the
    sum of its counts and a row with no count is a simulation never observed.
    Rows and slots grow by doubling.  The update order is what the AMIS step
    selects its *window* by (the last ``N`` simulations "in order of Q_j value
    updates", Section 3.2).  Observed batches wait in a queue until something
    reads the statistics, which folds them first (:meth:`_fold`).  A
    simulation's parameters are not kept here: the caller owns them.
    """

    def __init__(self) -> None:
        self._clear()

    def _clear(self) -> None:
        self._last_update = np.zeros(0, dtype=np.int64)
        self._steps = np.zeros((0, 1), dtype=np.int64)
        self._means = np.zeros((0, 1))
        self._counts = np.zeros((0, 1), dtype=np.int64)
        self._update_counter = 0
        self._n_observations = 0
        #: observed samples not folded yet, in arrival order: the first ``_queued`` entries
        self._queue = np.empty(_QUEUE_ENTRIES, dtype=_QUEUE)
        self._queued = 0

    # ------------------------------------------------------------- columns
    def _ensure_rows(self, rows: int) -> None:
        if rows > len(self._last_update):
            size = max(16, rows, 2 * len(self._last_update))
            self._last_update = _grown(self._last_update, (size,))
            self._grow_slots(size, self._means.shape[1])

    def _grow_slots(self, rows: int, width: int) -> None:
        self._steps, self._means, self._counts = (
            _grown(column, (rows, width)) for column in (self._steps, self._means, self._counts)
        )

    def _ensure_width(self, width: int) -> None:
        if width > self._means.shape[1]:
            self._grow_slots(len(self._last_update), max(width, 2 * self._means.shape[1]))

    def _q_values(self, rows: np.ndarray) -> np.ndarray:
        """Eq. 6 for observed ``rows``: each one's slot means averaged in slot order."""
        used = np.count_nonzero(self._counts[rows], axis=1)
        return np.array([self._means[row, :k].mean() for row, k in zip(rows.tolist(), used.tolist())])

    def _observed_rows(self) -> np.ndarray:
        self._fold()
        return np.flatnonzero(self._counts[:, 0])

    # -------------------------------------------------------------- ingest
    def observe_batch(
        self, simulation_ids: Sequence[int], timesteps: Sequence[int], deviations: Sequence[float]
    ) -> None:
        """Queue one batch's deviations ``δ`` (Eq. 4) for the Eq. 5 running means.

        The statistics change when the queue is folded.
        """
        start, stop = self._queued, self._queued + len(simulation_ids)
        if stop > len(self._queue):  # more samples between two reads than one mapping holds
            self._queue = _grown(self._queue, (max(stop, 2 * len(self._queue)),))
        queued = self._queue[start:stop]
        queued["row"], queued["timestep"], queued["deviation"] = simulation_ids, timesteps, deviations
        self._queued = stop

    def _fold(self) -> None:
        """Apply every queued sample to the Eq. 5 running means, in arrival order.

        A (simulation, time step) pair repeated in the queue updates its mean
        once per occurrence, in order; a row's new time steps take its free
        slots in the order the samples first show them; and a simulation's
        update order is that of its last sample.  The rows grow to the
        largest queued simulation id first.
        """
        n, self._queued = self._queued, 0
        if n:
            self._ensure_rows(int(self._queue["row"][:n].max()) + 1)
        for start in range(0, n, _FOLD_SAMPLES):
            self._fold_samples(self._queue[start : min(start + _FOLD_SAMPLES, n)])

    def _fold_samples(self, queued: np.ndarray) -> None:
        """:meth:`_fold` for a run of consecutive queued samples."""
        n = len(queued)
        rows, steps, deviations = queued["row"], queued["timestep"], queued["deviation"]

        # Group the samples by (row, time step); the stable sort keeps arrival order in a group.
        order = np.lexsort((steps, rows))
        rows, steps, deviations = rows[order], steps[order], deviations[order]
        head, repeat = _runs(rows, steps)
        group_rows, group_steps = rows[head], steps[head]

        # Each group's slot: the one its time step already has, or the next free one.
        known = (self._steps[group_rows] == group_steps[:, None]) & (self._counts[group_rows] > 0)
        group_slots = np.where(known.any(axis=1), known.argmax(axis=1), -1)
        new = np.flatnonzero(group_slots < 0)
        if new.size:
            # A row's new time steps take its free slots in the order the samples first show them.
            new = new[np.lexsort((order[head][new], group_rows[new]))]
            new_rows = group_rows[new]
            group_slots[new] = np.count_nonzero(self._counts[new_rows], axis=1) + _runs(new_rows)[1]
            self._ensure_width(int(group_slots.max()) + 1)
            self._steps[new_rows, group_slots[new]] = group_steps[new]

        # Running means, one pass per repeat so a repeated pair updates in arrival order.
        slots = group_slots[np.cumsum(head) - 1]
        for k in range(int(repeat.max()) + 1):
            sel = repeat == k
            r, s = rows[sel], slots[sel]
            self._counts[r, s] += 1
            self._means[r, s] += (deviations[sel] - self._means[r, s]) / self._counts[r, s]

        np.maximum.at(self._last_update, rows, self._update_counter + 1 + order)
        self._update_counter += n
        self._n_observations += n

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Every observed simulation's statistics, in id order, slots in first-seen order.

        The slot order is part of the bit-identical resume contract:
        ``Q_j`` averages a row's slot means in slot order.
        """
        observed = self._observed_rows()
        used = np.count_nonzero(self._counts[observed], axis=1)
        return {
            "update_counter": self._update_counter,
            "n_observations": self._n_observations,
            "records": [
                {
                    "simulation_id": sid,
                    "last_update_order": int(self._last_update[sid]),
                    "timesteps": self._steps[sid, :k].copy(),
                    "means": self._means[sid, :k].copy(),
                    "counts": self._counts[sid, :k].copy(),
                }
                for sid, k in zip(observed.tolist(), used.tolist())
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output.

        Snapshots of schema 3 and older also list simulations never observed,
        with each record's ``parameters`` and ``n_observations``; those rows
        stay empty and those keys are ignored.
        """
        self._clear()
        for payload in state["records"]:
            sid, k = int(payload["simulation_id"]), len(payload["timesteps"])
            self._ensure_rows(sid + 1)
            self._ensure_width(k)
            self._steps[sid, :k] = payload["timesteps"]
            self._means[sid, :k] = payload["means"]
            self._counts[sid, :k] = payload["counts"]
            self._last_update[sid] = int(payload["last_update_order"])
        self._update_counter = int(state["update_counter"])
        self._n_observations = int(state["n_observations"])

    # -------------------------------------------------------------- queries
    @property
    def n_observations(self) -> int:
        """Total number of per-sample observations ingested."""
        self._fold()
        return self._n_observations

    def q_value(self, simulation_id: int) -> float:
        self._fold()
        if simulation_id >= len(self._last_update) or self._counts[simulation_id, 0] == 0:
            return 0.0
        return float(self._q_values(np.array([simulation_id]))[0])

    def observed_ids(self) -> List[int]:
        """Simulation ids with at least one ingested observation."""
        return self._observed_rows().tolist()

    def window(self, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The last ``size`` observed simulations by update recency, most recent first.

        Returns their ids and matching ``Q_j`` values, each of shape ``(n,)``
        with ``n <= size``.
        """
        if size <= 0:
            raise ValueError("window size must be positive")
        observed = self._observed_rows()
        selected = observed[np.argsort(-self._last_update[observed], kind="stable")[:size]]
        return selected, self._q_values(selected)

    def all_q_values(self) -> Dict[int, float]:
        observed = self._observed_rows()
        return dict(zip(observed.tolist(), self._q_values(observed).tolist()))
