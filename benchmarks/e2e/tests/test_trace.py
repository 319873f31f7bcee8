"""Span arithmetic on synthetic spans, and removal of the layer wrappers."""

import types

from e2e import run, trace


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)
    with tracer.span("outer"):
        clock.now = 1.0
        with tracer.span("inner"):
            clock.now = 4.0
            with tracer.span("innermost"):
                clock.now = 6.0
        clock.now = 7.0
        with tracer.span("inner"):
            clock.now = 9.0
        clock.now = 10.0
    totals = tracer.totals()
    assert totals["outer"] == {"self_s": 3.0, "total_s": 10.0, "count": 1}
    assert totals["inner"] == {"self_s": 5.0, "total_s": 7.0, "count": 2}
    assert totals["innermost"] == {"self_s": 2.0, "total_s": 2.0, "count": 1}
    # self times of one thread sum to the time inside its root span
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_same_name_nested_keeps_self_times_additive():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)
    with tracer.span("nn.loss"):
        clock.now = 1.0
        with tracer.span("nn.loss"):
            clock.now = 3.0
        clock.now = 4.0
    assert tracer.totals()["nn.loss"]["self_s"] == 4.0
    assert tracer.totals()["nn.loss"]["count"] == 2


def test_leaf_span_keeps_the_time_of_spans_beneath_it():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)
    with tracer.span("root"):
        with tracer.span("surrogate.valset_build", leaf=True):
            with tracer.span("solvers.step"):
                clock.now = 5.0
            with tracer.span("solvers.step", leaf=True):
                clock.now = 6.0
        with tracer.span("solvers.step"):
            clock.now = 8.0
    totals = tracer.totals()
    assert totals["surrogate.valset_build"]["self_s"] == 6.0
    assert totals["solvers.step"] == {"self_s": 2.0, "total_s": 2.0, "count": 1}
    assert totals["root"]["self_s"] == 0.0


def test_events_name_their_parent_span():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)
    with tracer.span("a"):
        with tracer.span("b"):
            clock.now = 1.0
        with tracer.span("c"):
            clock.now = 2.0
    (events,) = tracer.events().values()
    assert events == [("a", 0.0, 2.0, -1), ("b", 0.0, 1.0, 0), ("c", 1.0, 1.0, 0)]
    assert trace.Tracer(clock=clock, record_events=False).events() == {}


def test_closure_is_attributed_share_of_wall():
    assert run.closure_pct(import_s=0.5, main_thread_self_s=9.0, wall_s=10.0) == 95.0
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)
    with tracer.span("loop"):
        with tracer.span("layer"):
            clock.now = 19.0
    self_s = sum(t["self_s"] for t in tracer.totals().values())
    assert run.closure_pct(1.0, self_s, 20.0) == 100.0


def test_patches_restore_owned_and_inherited_attributes():
    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    module = types.ModuleType("m")
    module.function = lambda: "function"
    original_function = module.function
    tracer = trace.Tracer()
    with trace.Patches(tracer) as patches:
        patches.wrap(Child, "method", "child.method")
        patches.wrap(module, "function", "m.function")
        assert "method" in vars(Child) and module.function is not original_function
        assert Child().method() == "base" and module.function() == "function"
    assert "method" not in vars(Child) and Child.method is Base.method
    assert module.function is original_function
    assert {"child.method", "m.function"} <= set(tracer.totals())


def test_wrapped_generator_spans_each_step():
    class Solver:
        def steps(self, n):
            yield from range(n)

    tracer = trace.Tracer()
    with trace.Patches(tracer) as patches:
        patches.wrap_generator(Solver, "steps", "solvers.step")
        assert list(Solver().steps(3)) == [0, 1, 2]
    # three items and the exhausted fourth ``next``
    assert tracer.totals()["solvers.step"]["count"] == 4
    assert list(Solver().steps(2)) == [0, 1]
    assert tracer.totals()["solvers.step"]["count"] == 4


def test_layer_wrappers_are_removed_after_a_traced_run():
    import repro.api.session as session_module
    import repro.checkpoint.policy as policy_module
    import repro.melissa.server as server_module
    import repro.nn.functional as functional
    from repro.api.session import TrainingSession
    from repro.api.workloads import Heat2DWorkload
    from repro.breed.controller import BreedController
    from repro.melissa.reservoir import Reservoir
    from repro.melissa.server import TrainingServer
    from repro.melissa.transport import InProcessTransport
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.service.worker import Worker
    from repro.solvers.heat2d import Heat2DImplicitSolver
    from repro.surrogate.model import DirectSurrogate
    from repro.workflow.executor import StudyInputCache

    targets = [
        (Heat2DWorkload, "build_solver"), (Heat2DImplicitSolver, "steps"),
        (session_module, "validation_set_for_workload"), (server_module, "validation_loss"),
        (TrainingSession, "submit"), (TrainingSession, "produce"), (TrainingSession, "receive"),
        (InProcessTransport, "account_batch"), (Reservoir, "sample_batch"),
        (DirectSurrogate, "forward"), (functional, "per_sample_mse"), (Tensor, "mean"),
        (Tensor, "backward"), (Adam, "step"), (BreedController, "observe_batch"),
        (BreedController, "maybe_steer"), (policy_module, "save_session"),
        (TrainingServer, "train_iteration"), (StudyInputCache, "inputs"), (Worker, "execute"),
    ]
    before = [vars(owner)[attr] for owner, attr in targets]
    tracer = trace.Tracer()
    patches = trace.Patches(tracer)
    trace.install_layer_wrappers(patches)
    trace.tape_nodes_of_first_iteration(patches, {})
    trace.install_workflow_wrappers(patches)
    trace.install_service_wrappers(patches)
    assert all(vars(owner)[attr] is not original for (owner, attr), original in zip(targets, before))
    patches.remove()
    assert all(vars(owner)[attr] is original for (owner, attr), original in zip(targets, before))
    patches.remove()  # idempotent
