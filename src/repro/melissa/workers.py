"""Solver worker processes: the clients get cores of their own.

In Melissa (paper §2.2) every client is a separate job streaming time steps
to a server that never waits for a solver.  :class:`SolverWorkers` gives the
in-process simulation the same shape: one ``os.fork`` child per usable CPU,
forked while the parent is still small, inheriting the factorised solver.
Parameter vectors, small commands and — for a split validation evaluation —
the pickled model cross a pipe (0.56 MB of weights for the paper MLP, 1.1 MB
with the gradient buffers a training step leaves); solution fields never
do.  They travel through anonymous shared ``mmap`` regions created before
the fork, or stay where the fork left them:

* an *array arena* whose carve-outs (:meth:`SolverWorkers.allocate`) the
  workers fill in place (:meth:`SolverWorkers.run` — the validation set),
* arrays *inherited* at fork time (``inherit=``: a validation set handed to
  the session), which workers read as they were then; :meth:`SolverWorkers.handle`
  names an array of either kind, and a :class:`ShareRun` hands back each
  share's return value (the validation set's per-batch error sums),
* a *ring* of ``ring_rows`` fields per running client
  (:meth:`SolverWorkers.stream`): the worker advances its trajectories
  round-robin, publishes a produced counter per row and stops ``ring_rows``
  ahead of the consumed cursor, so memory is bounded by the window, not by
  the trajectory.  A worker whose windows are all full sleeps on its command
  pipe; the consumer that half-drains a window wakes it.

Trajectory rows come first, so the training process does not wait for a
row while a worker evaluates: a share (every validation point of a session
that has workers) advances only in a pass of the worker's loop in which no
window had room, or, while the training process blocks on it, ahead of the
streams, whose consumer is then that blocked process.

A solver is a pure function of its parameter vector, so where the work runs
changes no output bit.  :func:`inline_reason` is the one selection: it names
the observable condition under which the calling process keeps the solver
work to itself (``None`` → use workers).  There is no option.

Shared counters are aligned 8-byte loads and stores, each written by one
side only; a row is written before its counter.  Python offers no fence, so
the one hand-shake that needs store→load order (the sleep flag) is backed by
a timeout instead of trusted.
"""

from __future__ import annotations

import builtins
import mmap
import os
import pickle
import select
import signal
import struct
import sys
import threading
import time
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.solvers.base import Solver

__all__ = ["MIN_TRAJECTORY_FLOATS", "RingStream", "ShareRun", "SolverWorkerError", "SolverWorkers",
           "inline_reason", "start_workers", "usable_cpus"]

#: ``field_size × (n_timesteps + 1)`` below which a trajectory does not amortise
#: a process (docs/PERFORMANCE.md "The second core": ``small``'s 7 936 loses,
#: ``study_grid``'s 52 224 wins)
MIN_TRAJECTORY_FLOATS = 1 << 15

#: a live worker that publishes nothing for this long is reported, not awaited
STALL_LIMIT_SECONDS = 120.0

#: a worker's sleep with nothing to compute / with every window full (see ``_serve``)
IDLE_POLL_SECONDS, FULL_POLL_SECONDS = 0.5, 0.02

_PRODUCED, _DONE, _ACK, _CONSUMED = range(4)  # columns of the per-slot control block
_RUNNING, _FAILED = -1, -2                    # ``_DONE`` before the row count is known

#: a float64 array as workers address it: (offset in floats, shape), the offset
#: counted over the arena followed by each inherited array, end to end
Handle = Tuple[int, Tuple[int, ...]]


class SolverWorkerError(RuntimeError):
    """A solver worker died, stalled, or was asked for work after :meth:`close`."""


def usable_cpus() -> int:
    """CPUs this process may run on (affinity mask where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def inline_reason(solver: Optional[Solver] = None) -> Optional[str]:
    """Name of the condition that keeps solver work on this process, else ``None``.

    Without ``solver`` only the process-level conditions are checked
    (``repro doctor`` reports those).
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if not hasattr(os, "fork"):
        return "no_fork"
    if usable_cpus() < 2:
        return "single_cpu"
    if multiprocessing is not None and multiprocessing.parent_process() is not None:
        return "pool_worker"  # a process-backend study worker: its siblings fill the cores
    if threading.active_count() > 1:
        return "threads_alive"  # fork copies one thread; a lock another holds stays held
    if solver is not None and solver.field_size * (solver.n_timesteps + 1) < MIN_TRAJECTORY_FLOATS:
        return "small_trajectory"
    return None


def start_workers(solver: Solver, **options: Any) -> Optional["SolverWorkers"]:
    """Workers for ``solver`` when :func:`inline_reason` names no objection."""
    return SolverWorkers(solver, **options) if inline_reason(solver) is None else None


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def _shared(dtype: type, shape: Tuple[int, ...]) -> np.ndarray:
    """A zeroed array in anonymous shared memory: forked children see the parent's writes."""
    size = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(1, size) * 8)  # both dtypes in use are 8 bytes wide
    return np.frombuffer(buffer, dtype=dtype)[:size].reshape(shape)


def _frame(message: Any) -> bytes:
    body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return struct.pack("<I", len(body)) + body


#: the command that only ends a worker's sleep
_WAKE = _frame(("wake",))


def _send(fd: int, message: Any) -> None:
    data = _frame(message)
    while data:
        data = data[os.write(fd, data):]


def _receive(fd: int) -> Any:
    """The next message on ``fd``; ``None`` once the other end is closed."""
    data, size = b"", 4
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            return None
        data += chunk
        if len(data) == 4 and size == 4:
            size += struct.unpack("<I", data)[0]
    return pickle.loads(data[4:])


def _remote_error(type_name: str, message: str) -> Exception:
    """The exception a worker raised, rebuilt by name (built-ins) for the parent to raise."""
    kind = getattr(builtins, type_name, None)
    if isinstance(kind, type) and issubclass(kind, Exception):
        return kind(message)
    return SolverWorkerError(f"{type_name}: {message}")


class SolverWorkers:
    """``n_workers`` forked solver processes over shared memory (see module docstring)."""

    def __init__(self, solver: Solver, array_floats: int = 0, ring_slots: int = 0,
                 ring_rows: int = 0, n_workers: Optional[int] = None,
                 inherit: Sequence[np.ndarray] = ()) -> None:
        self.solver = solver
        self.n_workers = n_workers if n_workers is not None else usable_cpus()
        self.ring_rows = ring_rows
        #: seconds :meth:`stream` consumers spent waiting for a row not there yet
        self.wait_seconds = 0.0
        self._owner = os.getpid()
        self._pids: List[Optional[int]] = []
        self._commands: List[int] = []
        self._replies: List[int] = []
        ring_shape = (ring_slots, ring_rows, solver.field_size)
        self._arena = _shared(np.float64, (max(0, array_floats),))
        self._allocated = 0
        #: what a handle's offset counts over: the arena, then each inherited array
        #: (only float64 C-ordered ones flatten to a view of themselves)
        self._bases = [self._arena, *(
            array.reshape(-1) for array in inherit
            if array.dtype == np.float64 and array.flags.c_contiguous
        )]
        self._ring = _shared(np.float64, ring_shape)
        self._control = _shared(np.int64, (ring_slots, 4))
        #: per worker: 1 while it sleeps on full windows and wants a wake-up when one
        #: drains; 1 while the parent blocks on its share, which then runs before its streams
        self._asleep, self._awaited = _shared(np.int64, (2, self.n_workers))
        self._free = list(range(ring_slots))
        self._load = [0] * self.n_workers
        self._epoch = 0
        #: replies read: streaming failures by slot, and the running share run's by worker
        self._errors: Dict[int, Tuple[str, str]] = {}
        self._done: Dict[int, Tuple[Optional[str], Any]] = {}
        self._running: Optional[ShareRun] = None
        try:
            for index in range(self.n_workers):
                self._fork(index)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------- lifecycle
    @property
    def pids(self) -> List[int]:
        """Process ids of the workers not yet reaped."""
        return [pid for pid in self._pids if pid is not None]

    @property
    def ring_bytes(self) -> int:
        """Shared memory of the streaming rings (bounded by the window, not the trajectory)."""
        return self._ring.nbytes

    def _fork(self, index: int) -> None:
        command_read, command_write = os.pipe()
        reply_read, reply_write = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                # Signals mean what they mean to a fresh process, and the ends
                # of the pipes that belong to the parent (this worker's and the
                # earlier workers') must not outlive it here: EOF is how a
                # worker learns its parent is gone.
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                signal.signal(signal.SIGINT, signal.SIG_DFL)
                for fd in (command_write, reply_read, *self._commands, *self._replies):
                    os.close(fd)
                self._serve(index, command_read, reply_write)
                status = 0
            finally:
                os._exit(status)  # never unwind into the parent's stack or atexit handlers
        os.close(command_read)
        os.close(reply_write)
        self._pids.append(pid)
        self._commands.append(command_write)
        self._replies.append(reply_read)

    def close(self) -> None:
        """Kill and reap every worker (idempotent; a forked copy leaves them alone)."""
        if os.getpid() != self._owner:
            return
        for fd in (*self._commands, *self._replies):
            os.close(fd)
        for pid in self.pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # gone already; nothing left to reap
        # The last run refers back to the pool: drop it, or the cycle keeps the
        # shared arena mapped until the cycle collector happens to run.
        self._pids, self._commands, self._replies, self._running = [], [], [], None

    __del__ = close

    def _check_alive(self, worker: int, dying: bool = False) -> None:
        """Raise the named error once ``worker`` is dead (``dying``: wait for the kernel to say so)."""
        pid = self._pids[worker] if self._pids else None
        if pid is None:
            raise SolverWorkerError(f"solver worker {worker} is gone: closed, or reported dead before")
        reaped, status = os.waitpid(pid, 0 if dying else os.WNOHANG)
        if reaped:
            self._pids[worker] = None
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise SolverWorkerError(f"solver worker {worker} (pid {pid}) {how} mid-work")

    def _command(self, worker: int, message: Any) -> None:
        self._check_alive(worker)
        try:
            _send(self._commands[worker], message)
        except OSError as error:
            raise SolverWorkerError(f"solver worker {worker} does not take commands: {error}") from error

    def _file_reply(self, worker: int, block: bool = True) -> bool:
        """File ``worker``'s next ``(slot or None, error type or None, value)``; False: none sent yet."""
        self._check_alive(worker)
        fd = self._replies[worker]
        while not select.select([fd], [], [], 0.05 if block else 0)[0]:
            if not block:
                return False
            self._check_alive(worker)
        message = _receive(fd)
        if message is None:  # end of file: only a worker's exit closes its end
            self._check_alive(worker, dying=True)
        slot, kind, value = message
        if slot is None:
            self._done[worker] = (kind, value)
        else:
            self._errors[slot] = (kind, value)
        return True

    # ---------------------------------------------------------- shared arrays
    def allocate(self, shape: Sequence[int]) -> Tuple[Handle, np.ndarray]:
        """Carve a float64 array out of the arena; workers reach it by its handle."""
        handle = (self._allocated, tuple(int(n) for n in shape))
        size = int(np.prod(handle[1]))
        if self._allocated + size > self._arena.size:
            raise ValueError(
                f"shared arena of {self._arena.size} floats cannot hold {handle[1]} "
                f"after {self._allocated}"
            )
        self._allocated += size
        return handle, self._view(handle)

    def handle(self, array: np.ndarray) -> Optional[Handle]:
        """The handle workers read ``array`` by in place, or ``None``: do the work here.

        ``array`` must be float64, C-ordered and lie inside the arena or an
        array inherited at fork time; ``None`` too once the pool is closed.
        """
        if not self.pids or array.dtype != np.float64 or not array.flags.c_contiguous:
            return None
        address, offset = _address(array), 0
        for base in self._bases:
            start = _address(base)
            if start <= address and address + array.nbytes <= start + base.nbytes:
                return offset + (address - start) // 8, array.shape
            offset += base.size
        return None

    def _view(self, handle: Handle) -> np.ndarray:
        offset, shape = handle
        size = int(np.prod(shape))
        for base in self._bases:
            if offset + size <= base.size:
                return base[offset : offset + size].reshape(shape)
            offset -= base.size
        raise ValueError(f"handle {handle} lies outside the arena and the inherited arrays")

    def start(self, function: Callable[..., Any], shares: Sequence[tuple],
              in_flight: Optional[int] = None) -> "ShareRun":
        """``function(solver, view, *share)`` on worker ``i`` for share ``i``, ``in_flight`` at once.

        ``view(handle)`` is the array of an :meth:`allocate` or :meth:`handle` handle.  A share
        returning an iterator advances one item in each pass of the worker's loop in which no
        stream window had room, and in every pass, ahead of the streams, while the caller blocks
        on it (:meth:`ShareRun.result`); its value is the items' list.  A run in flight is
        awaited first (replies go by worker).
        """
        if len(shares) > self.n_workers:
            raise ValueError(f"{len(shares)} shares for {self.n_workers} workers")
        if self._running is not None:
            self._running._collect(block=True)
        self._running = ShareRun(self, function, shares, in_flight or len(shares))
        return self._running

    def run(self, function: Callable[..., Any], shares: Sequence[tuple]) -> List[Any]:
        """Every share at once, awaited: ``start(function, shares).result()``."""
        return self.start(function, shares).result()

    # -------------------------------------------------------------- streaming
    def stream(self, parameters: np.ndarray, skip: int = 0) -> "RingStream":
        """Dispatch one trajectory now; its :class:`RingStream` reads rows from ``skip`` on."""
        if not self._free:
            raise SolverWorkerError(f"all {len(self._control)} ring slots are streaming")
        slot = min(self._free, key=lambda s: (self._load[s % self.n_workers], s))
        worker = slot % self.n_workers
        self._epoch += 1
        self._control[slot, _CONSUMED] = 0
        self._command(worker, ("stream", slot, self._epoch, np.asarray(parameters), skip))
        self._free.remove(slot)
        self._load[worker] += 1
        return RingStream(self, slot, self._epoch)

    def _release(self, slot: int, cancel: bool) -> None:
        """Hand ``slot`` back; ``cancel`` stops the worker's share of an abandoned trajectory."""
        worker = slot % self.n_workers
        if cancel and self.pids:
            try:
                self._command(worker, ("cancel", slot))
            except SolverWorkerError:
                pass
        self._load[worker] -= 1
        self._free.append(slot)

    def _wait(self, control: np.ndarray, slot: int, epoch: int, row: int) -> bool:
        """Block until ``row`` is in the ring (True) or the trajectory ended before it."""
        started, delay = 0.0, 2e-5
        try:
            while True:
                if control[_ACK] == epoch:
                    if control[_PRODUCED] > row:
                        return True
                    done = control[_DONE]
                    if done == _FAILED:
                        while slot not in self._errors:
                            self._file_reply(slot % self.n_workers)
                        raise _remote_error(*self._errors.pop(slot))
                    if done >= 0:  # the count is published after the last row
                        return bool(row < done)
                now = time.perf_counter()
                started = started or now
                if now - started > STALL_LIMIT_SECONDS:
                    raise SolverWorkerError(
                        f"solver worker {slot % self.n_workers} published nothing for "
                        f"{STALL_LIMIT_SECONDS:.0f} s"
                    )
                self._check_alive(slot % self.n_workers)
                time.sleep(delay)
                delay = min(2 * delay, 1e-3)
        finally:
            if started:
                self.wait_seconds += time.perf_counter() - started

    # ------------------------------------------------------------ worker side
    def _serve(self, index: int, commands: int, replies: int) -> None:
        """Worker main loop: commands in, trajectories advanced round-robin, until EOF.

        A pass advances every trajectory whose window has room; a running share
        advances one item in a pass that advanced none, or, while the parent
        blocks on it, instead of the trajectories.
        """
        control, ring, rows = self._control, self._ring, self.ring_rows
        asleep, awaited = self._asleep, self._awaited
        active: Dict[int, list] = {}  # slot → [iterator, rows produced]
        share: Optional[Tuple[Iterator, Any]] = None  # a running share: its iterator, its value
        while True:
            advanced = False
            if share is None or not awaited[index]:
                for slot, entry in list(active.items()):
                    if entry[1] - control[slot, _CONSUMED] >= rows:
                        continue  # back-pressure: the window is full
                    advanced = True
                    try:
                        ring[slot, entry[1] % rows] = next(entry[0])
                    except StopIteration:
                        control[slot, _DONE] = entry[1]
                        del active[slot]
                    except Exception as error:  # noqa: BLE001 - reported to the parent, by name
                        _send(replies, (slot, type(error).__name__, str(error)))
                        control[slot, _DONE] = _FAILED
                        del active[slot]
                    else:
                        entry[1] += 1
                        control[slot, _PRODUCED] = entry[1]
            if share is not None and not advanced:
                advanced = True
                try:
                    item = next(share[0])  # a plain value's iterator is empty
                    share[1].append(item)
                except StopIteration:
                    _send(replies, (None, None, share[1]))
                    share = None
                except Exception as error:  # noqa: BLE001 - reported to the parent, by name
                    _send(replies, (None, type(error).__name__, str(error)))
                    share = None
            if advanced:
                timeout = 0.0
            elif not active:
                timeout = IDLE_POLL_SECONDS
            elif not asleep[index]:
                asleep[index] = 1  # ask for a wake-up, then look once more before sleeping
                continue
            else:
                # The consumer wakes this sleep when a window drains; the timeout
                # only bounds what a wake-up lost between its store and our load costs.
                timeout = FULL_POLL_SECONDS
            ready = select.select([commands], [], [], timeout)[0]
            asleep[index] = 0
            if not ready:
                if not advanced and os.getppid() != self._owner:
                    return
                continue
            command = _receive(commands)
            if command is None:
                return
            if command[0] == "stream":
                _, slot, epoch, parameters, skip = command
                active[slot] = [islice(self.solver.steps(parameters), skip, None), 0]
                control[slot, _PRODUCED], control[slot, _DONE] = 0, _RUNNING
                control[slot, _ACK] = epoch
            elif command[0] == "cancel":
                active.pop(command[1], None)
            elif command[0] == "run":
                _, function, arguments = command
                try:
                    value = function(self.solver, self._view, *arguments)
                    share = (value, []) if isinstance(value, Iterator) else (iter(()), value)
                except Exception as error:  # noqa: BLE001 - reported to the parent, by name
                    _send(replies, (None, type(error).__name__, str(error)))


class ShareRun:
    """The shares of one :meth:`SolverWorkers.start`: share ``i`` runs on worker ``i``."""

    def __init__(self, workers: SolverWorkers, function: Callable[..., Any],
                 shares: Sequence[tuple], in_flight: int) -> None:
        self._workers, self._in_flight, self._sent = workers, in_flight, 0
        self._commands = [("run", function, share) for share in shares]
        self._replies = workers._done = {}  # where the pool files this run's replies
        self._collect(block=False)  # dispatches the first shares

    def _collect(self, block: bool) -> bool:
        """Dispatch the shares that may run, then read the replies that are in (``block``: all).

        While it blocks, each worker runs its share ahead of its streams: the
        caller, their consumer, reads no row until the shares are in.
        """
        awaited = self._workers._awaited[: len(self._commands)]
        if block:
            awaited[:] = 1
        try:
            while True:
                while self._sent < len(self._commands) and self._sent - len(self._replies) < self._in_flight:
                    self._workers._command(self._sent, self._commands[self._sent])
                    self._sent += 1
                replied = len(self._replies)
                for worker in range(self._sent):
                    while worker not in self._replies and self._workers._file_reply(worker, block):
                        pass  # a streaming failure filed meanwhile
                if len(self._replies) == replied or self._sent == len(self._commands):
                    return len(self._replies) == len(self._commands)
        finally:
            if block:
                awaited[:] = 0

    def done(self) -> bool:
        """Whether every share has replied; never blocks (a dead worker still raises)."""
        return self._collect(block=False)

    def result(self) -> List[Any]:
        """Each share's value in share order; a share that raised is raised here, by name."""
        self._in_flight = len(self._commands)  # the caller waits: its CPU is free for the rest
        self._collect(block=True)
        replies = [self._replies[worker] for worker in range(len(self._commands))]
        for kind, value in replies:
            if kind is not None:
                raise _remote_error(kind, value)
        return [value for _, value in replies]


class RingStream:
    """One trajectory a worker streams through a ring slot (see :meth:`SolverWorkers.stream`).

    :meth:`read` copies rows straight from the ring into the caller's array.
    The slot is handed back when the trajectory ends, when a read raises, or
    on :meth:`close`, which also cancels a trajectory abandoned mid-way.
    """

    def __init__(self, workers: SolverWorkers, slot: int, epoch: int) -> None:
        self._workers, self._slot, self._epoch = workers, slot, epoch
        self._row = 0
        self._open = True

    def read(self, out: np.ndarray) -> int:
        """Copy the next rows into ``out``; fewer than ``len(out)`` only where the trajectory ends."""
        workers, slot = self._workers, self._slot
        control, ring, window = workers._control[slot], workers._ring[slot], workers.ring_rows
        worker = slot % workers.n_workers
        n = 0
        try:
            while n < len(out) and self._open:
                if not workers._wait(control, slot, self._epoch, self._row):
                    self._open = False
                    workers._release(slot, cancel=False)
                    break
                take = min(len(out) - n, int(control[_PRODUCED]) - self._row)
                start = self._row % window
                head = min(take, window - start)  # the rest wraps to the ring's first rows
                out[n : n + head] = ring[start : start + head]
                out[n + head : n + take] = ring[: take - head]
                n += take
                self._row += take
                control[_CONSUMED] = self._row
                # A worker that stopped on full windows is woken once one is half
                # drained, not per row: waking an idle core costs ~50 µs here.
                if workers._asleep[worker] and control[_PRODUCED] - self._row <= window // 2:
                    workers._asleep[worker] = 0
                    try:
                        os.write(workers._commands[worker], _WAKE)
                    except (OSError, IndexError):
                        pass  # dead or closed: the next wait says so
        except BaseException:
            self.close()
            raise
        return n

    def close(self) -> None:
        """Hand the slot back (idempotent), cancelling the trajectory if rows remain."""
        if self._open:
            self._open = False
            self._workers._release(self._slot, cancel=True)
