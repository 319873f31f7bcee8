"""Span tracer and layer wrappers, applied to ``repro`` from the outside.

Nothing under ``src/`` knows about this file.  A traced benchmark run
substitutes wrapped callables for the public entry points of each layer
(module and class attributes), runs the workload, and puts the originals
back; an untraced run never imports the wrappers' targets through here at
all.  Spans inside ``src/`` are a later issue (ROADMAP "Phase ledger").

A span's *self time* is its duration minus the time covered by its child
spans, so the self times of all spans on one thread sum to the time that
thread spent inside its root spans.  A *leaf* span mutes every span opened
beneath it: its self time is then its whole duration, which is how
``surrogate.valset_build`` keeps the solver steps it drives.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Patches", "Tracer", "install_layer_wrappers", "install_workflow_wrappers",
           "install_service_wrappers", "tape_nodes_of_first_iteration"]


class _ThreadState:
    """Span stack, totals and finished spans of one thread."""

    __slots__ = ("name", "stack", "muted", "totals", "events")

    def __init__(self, name: str, record_events: bool) -> None:
        self.name = name
        #: open spans, innermost last: [span name, start, child seconds, event index, leaf]
        self.stack: List[list] = []
        #: True while a leaf span is open: spans opened beneath it are dropped
        self.muted = False
        #: span name → [self seconds, inclusive seconds, count]
        self.totals: Dict[str, List[float]] = {}
        #: finished spans: (name, start, duration, index of the parent span or -1);
        #: None when only the totals are wanted
        self.events: Optional[List[Optional[Tuple[str, float, float, int]]]] = (
            [] if record_events else None
        )

    def enter(self, name: str, leaf: bool, clock: Callable[[], float]) -> bool:
        """Open a span; False (and nothing to :meth:`exit`) beneath a leaf span."""
        if self.muted:
            return False
        self.muted = leaf
        index = -1
        if self.events is not None:
            index = len(self.events)
            self.events.append(None)
        self.stack.append([name, clock(), 0.0, index, leaf])
        return True

    def exit(self, clock: Callable[[], float]) -> None:
        """Close the innermost span and credit its duration to its parent."""
        end = clock()
        name, start, child, index, leaf = self.stack.pop()
        if leaf:
            self.muted = False
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0.0, 0.0, 0]
        total[0] += duration - child
        total[1] += duration
        total[2] += 1
        parent = -1
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        if self.events is not None:
            self.events[index] = (name, start, duration, parent)


class _Span:
    """Context manager of one span (see :meth:`Tracer.span`)."""

    __slots__ = ("tracer", "name", "leaf", "state", "open")

    def __init__(self, tracer: "Tracer", name: str, leaf: bool) -> None:
        self.tracer = tracer
        self.name = name
        self.leaf = leaf

    def __enter__(self) -> None:
        self.state = self.tracer.state()
        self.open = self.state.enter(self.name, self.leaf, self.tracer.clock)

    def __exit__(self, *exc_info: Any) -> None:
        if self.open:
            self.state.exit(self.tracer.clock)


class Tracer:
    """In-memory span recorder with per-thread nesting.

    Totals are always kept; the spans themselves (name, start, duration,
    parent) only with ``record_events``, for a run whose trace is written
    out.  ``clock`` is injectable so the self-time arithmetic can be tested
    on synthetic spans.
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, record_events: bool = True
    ) -> None:
        self.clock = clock
        self.record_events = record_events
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()

    def state(self) -> _ThreadState:
        """The calling thread's span state (created on first use)."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(
                threading.current_thread().name, self.record_events
            )
            with self._lock:
                self._states.append(state)
        return state

    def span(self, name: str, leaf: bool = False) -> _Span:
        """Open a span named ``name`` on the calling thread."""
        return _Span(self, name, leaf)

    def totals(self, thread: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """``{span name: {self_s, total_s, count}}`` summed over threads.

        ``thread`` restricts the sum to the thread of that name (closure is
        computed on the main thread only: concurrent threads overlap in time).
        """
        merged: Dict[str, Dict[str, float]] = {}
        for state in list(self._states):
            if thread is not None and state.name != thread:
                continue
            for name, (self_s, total_s, count) in state.totals.items():
                entry = merged.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "count": 0})
                entry["self_s"] += self_s
                entry["total_s"] += total_s
                entry["count"] += count
        return merged

    def events(self) -> Dict[str, List[Tuple[str, float, float, int]]]:
        """Finished spans per thread, in opening order."""
        return {
            state.name: [event for event in state.events or () if event is not None]
            for state in list(self._states)
        }


# ---------------------------------------------------------------------------
# Attribute substitution
# ---------------------------------------------------------------------------


class Patches:
    """Substituted attributes of one traced run; :meth:`remove` undoes them.

    Use as a context manager.  Owners are modules and classes; an attribute
    the owner inherits (rather than defines) is deleted again on removal.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.remove()

    def substitute(self, owner: Any, attr: str, replacement: Any) -> Any:
        """Set ``owner.attr = replacement``; returns the original callable."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, attr in vars(owner), vars(owner).get(attr)))
        setattr(owner, attr, replacement)
        return original

    def wrap(self, owner: Any, attr: str, span: str, leaf: bool = False) -> None:
        """Run every call of ``owner.attr`` inside a span named ``span``."""
        get_state, clock = self.tracer.state, self.tracer.clock
        original = getattr(owner, attr)

        # The hot wrappers fire a dozen times per training iteration, so they
        # drive the thread state directly instead of allocating a _Span.
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = get_state()
            if not state.enter(span, leaf, clock):
                return original(*args, **kwargs)
            try:
                return original(*args, **kwargs)
            finally:
                state.exit(clock)

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        self.substitute(owner, attr, traced)

    def wrap_generator(self, owner: Any, attr: str, span: str) -> None:
        """Run every ``next()`` of the generator ``owner.attr`` returns in a span."""
        get_state, clock = self.tracer.state, self.tracer.clock
        original = getattr(owner, attr)

        def traced(*args: Any, **kwargs: Any):
            iterator = original(*args, **kwargs)
            while True:
                state = get_state()
                opened = state.enter(span, False, clock)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if opened:
                        state.exit(clock)
                yield item

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        self.substitute(owner, attr, traced)

    def remove(self) -> None:
        """Put every original back (idempotent)."""
        while self._undo:
            owner, attr, owned, original = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# ---------------------------------------------------------------------------
# Which calls belong to which layer
# ---------------------------------------------------------------------------


def install_layer_wrappers(patches: Patches) -> None:
    """Wrap the calls a training session makes into each layer.

    Span names are ``layer.phase`` with ``layer`` the module under
    ``src/repro/``.  Class- and module-level substitution reaches sessions
    built anywhere in the process: directly, by ``restore_session``, by a
    serial study or by a service worker thread.
    """
    import repro.api.session as session_module
    import repro.checkpoint.policy as policy_module
    import repro.melissa.server as server_module
    import repro.nn.functional as functional
    from repro.api.session import TrainingSession
    from repro.api.workloads import Heat2DWorkload
    from repro.breed.controller import BreedController
    from repro.melissa.reservoir import Reservoir
    from repro.melissa.transport import InProcessTransport
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.solvers.heat2d import Heat2DImplicitSolver
    from repro.surrogate.model import DirectSurrogate

    # solvers
    patches.wrap(Heat2DWorkload, "build_solver", "solvers.build")
    patches.wrap_generator(Heat2DImplicitSolver, "steps", "solvers.step")
    # surrogate: both names are imported into their callers' namespaces.  (A
    # study builds its validation set under ``workflow.input_build`` instead.)
    patches.wrap(session_module, "validation_set_for_workload", "surrogate.valset_build", leaf=True)
    patches.wrap(server_module, "validation_loss", "surrogate.validation_eval", leaf=True)
    # melissa
    patches.wrap(TrainingSession, "submit", "melissa.submit")
    patches.wrap(TrainingSession, "produce", "melissa.produce")
    patches.wrap(InProcessTransport, "account_batch", "melissa.transport")
    patches.wrap(TrainingSession, "receive", "melissa.receive")
    patches.wrap(Reservoir, "sample_batch", "melissa.draw")
    # nn
    patches.wrap(DirectSurrogate, "forward", "nn.forward")
    # per_sample_mse calls Tensor.mean itself; a leaf spares that nested span
    patches.wrap(functional, "per_sample_mse", "nn.loss", leaf=True)
    patches.wrap(Tensor, "mean", "nn.loss")
    patches.wrap(Tensor, "backward", "nn.backward")
    patches.wrap(Adam, "step", "nn.optimizer")
    # breed
    patches.wrap(BreedController, "observe_batch", "breed.observe")
    patches.wrap(BreedController, "maybe_steer", "breed.steer")
    # checkpoint (restore is called, and timed, by the workload itself)
    patches.wrap(policy_module, "save_session", "checkpoint.save", leaf=True)


def install_workflow_wrappers(patches: Patches) -> None:
    """Wrap the driver-side shared-input build of a study (all backends)."""
    from repro.workflow.executor import StudyInputCache

    patches.wrap(StudyInputCache, "inputs", "workflow.input_build", leaf=True)


def install_service_wrappers(patches: Patches) -> None:
    """Wrap the service worker's job execution (runs on the worker thread)."""
    from repro.service.worker import Worker

    patches.wrap(Worker, "execute", "service.exec")


def tape_nodes_of_first_iteration(patches: Patches, sink: Dict[str, int]) -> None:
    """Record the autograd nodes of the first training iteration in ``sink``.

    Only one iteration is taped: an active tape keeps every node — and the
    batch-sized arrays it saved — alive.
    """
    from repro.melissa.server import TrainingServer
    from repro.nn.tensor import Tape

    original = TrainingServer.train_iteration

    def train_iteration(self: Any, *args: Any, **kwargs: Any) -> Any:
        if "nn.tape_nodes" in sink:
            return original(self, *args, **kwargs)
        with Tape() as tape:
            loss = original(self, *args, **kwargs)
        if loss is not None:
            sink["nn.tape_nodes"] = len(tape)
        return loss

    patches.substitute(TrainingServer, "train_iteration", train_iteration)
