#!/usr/bin/env python
"""Which ``src/`` functions does no run reach?

Records every function entry with :func:`sys.setprofile` while driving, in
this one process, the paths a user or the benchmark can take:

* every ``repro`` experiment at ``--scale smoke`` on the serial backend, one
  of them with ``--metrics --trace``, one with ``--checkpoint-every`` and
  then ``--restore``, and one over two ``--seeds`` that ``repro compare``
  then reads;
* ``repro bench``: every scenario once, then a ``--compare``;
* a ``repro campaign`` on a tiny spec, then a ``--resume`` of its finished root;
* an in-process :class:`~repro.service.StudyService`: submit, dedupe
  resubmit, events, stream, result and a campaign job;
* ``repro serve`` until a SIGINT;
* a session snapshot and :func:`~repro.checkpoint.restore_session`;
* every ``examples/*.py``;
* ``scripts/check_docs.py``;
* the four ``benchmarks/e2e`` workloads at the shrunken shape of their tests;
* ``repro doctor`` over everything the paths above left behind.

It then prints the ``src/repro`` functions never entered, grouped by module,
each with the reason it stays (:data:`KEEP`), and exits with status 1 when one
of them has none::

    PYTHONPATH=src python scripts/reachability.py

The process first pins itself to one CPU, so a session steps its solvers
in-process (``inline_reason`` reads ``single_cpu``) where the profiler sees
them.  Code that runs in forked study workers is recorded through a log file
per process.  Abstract methods and ``Protocol`` members are declarations, not
code, and are not counted.  Only files are read outside a temporary directory.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import fnmatch
import io
import json
import os
import runpy
import signal
import sys
import tempfile
import threading
import time
import types
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

REGISTRY = "registry: reached through an accepted config value or registry name"
VJP = "registry: builds or differentiates an op of the VJP registry"
SAMPLER_API = "registry: default a sampler registered with register_sampler inherits"
NULL_OBJECT = "registry: the telemetry-off stand-in of a kept metrics or tracing method"
REFERENCE = "reference: an implementation tests compare against"
OFFLINE = "offline: the offline-training path of examples/offline_vs_online.py"
HTTP = "http: ServiceClient method or HTTP route"
SURFACE = "surface: a CLI flag or documented helper no driven path passes"
SAFETY = "safety: an error, interrupt, resume or cleanup path"
TWO_CPU = "two-cpu: the pooled path a session takes with two usable CPUs; this script pins one"
DATA_MODEL = "data model: a len/iter/repr/eq/hash method of a kept class"
ORACLE = "oracle: a read-only view or entry point tests check kept code through"

#: (module pattern, qualname pattern, reason) — first match wins; patterns
#: are :mod:`fnmatch` globs, narrow on purpose: a function added later and
#: never entered must not inherit a reason by accident.
KEEP: List[Tuple[str, str, str]] = [
    # data model methods of kept classes
    *[("*", f"*.__{name}__", DATA_MODEL)
      for name in ("len", "iter", "repr", "eq", "hash")],
    ("repro.nn.layers", "Sequential.__getitem__", DATA_MODEL),
    # the pooled solver path
    ("repro.melissa.workers", "*", TWO_CPU),
    ("repro.surrogate.validation", "_fill_share", TWO_CPU),
    ("repro.surrogate.validation", "_sum_share", TWO_CPU),
    # reachable through a config value or registry name
    ("repro.api.registry", "sampler_names", REGISTRY),
    ("repro.api.registry", "activation_names", REGISTRY),
    ("repro.nn.functional", "_vjp_conv2d", REGISTRY),
    ("repro.nn.functional", "leaky_relu", REGISTRY),
    ("repro.nn.functional", "tanh", REGISTRY),
    ("repro.nn.functional", "sigmoid", REGISTRY),
    ("repro.nn.layers", "LeakyReLU.*", REGISTRY),
    ("repro.nn.layers", "Tanh.forward", REGISTRY),
    ("repro.nn.layers", "Identity.forward", REGISTRY),
    ("repro.nn.init", "kaiming_normal", REGISTRY),
    ("repro.nn.init", "xavier_*", REGISTRY),
    ("repro.nn.tensor", "_vjp_*", VJP),
    ("repro.nn.tensor", "stack", VJP),
    ("repro.nn.tensor", "concatenate", VJP),
    ("repro.nn.tensor", "Tensor.__*__", VJP),
    ("repro.nn.tensor", "Tensor.T", VJP),
    ("repro.nn.tensor", "Tensor.matmul", VJP),
    ("repro.nn.tensor", "Tensor.transpose", VJP),
    ("repro.nn.tensor", "Tensor.exp", VJP),
    ("repro.nn.tensor", "Tensor.log", VJP),
    ("repro.nn.tensor", "Tensor.tanh", VJP),
    ("repro.nn.tensor", "Tensor.sigmoid", VJP),
    ("repro.nn.tensor", "Tensor.sqrt", VJP),
    ("repro.nn.tensor", "Tensor.max", VJP),
    ("repro.breed.samplers", "SteeringSampler.*", SAMPLER_API),
    ("repro.telemetry.metrics", "_NullSeries.*", NULL_OBJECT),
    ("repro.telemetry.tracing", "NullTracer.*", NULL_OBJECT),
    # reference implementations
    ("repro.nn.grad_check", "*", REFERENCE),
    ("repro.nn.losses", "*", REFERENCE),
    ("repro.solvers.heat2d", "Heat2DExplicitSolver.*", REFERENCE),
    ("repro.solvers.heat*", "*.steady_state", REFERENCE),
    ("repro.solvers.advection", "*.exact", REFERENCE),
    ("repro.solvers.advection", "advected_gaussian_2d", REFERENCE),
    ("repro.solvers.burgers", "Burgers1DSolver.initial_field", REFERENCE),
    ("repro.solvers.reaction_diffusion", "FisherKPPSolver.initial_field", REFERENCE),
    ("repro.solvers.reaction_diffusion", "kpp_front_speed", REFERENCE),
    ("repro.solvers.grid", "Grid1D.coordinates", REFERENCE),
    # the offline path
    ("repro.surrogate.dataset", "*", OFFLINE),
    # HTTP surface
    ("repro.service.client", "*", HTTP),
    ("repro.service.server", "_Handler.*", HTTP),
    ("repro.service.store", "JobStore.request_cancel", HTTP),
    ("repro.service.store", "JobStore.mark_cancelled", HTTP),
    # safety
    ("repro.service.store", "JobStore.requeue", SAFETY),
    ("repro.service.store", "JobStore.mark_failed", SAFETY),
    ("repro.cli", "_write_interrupt_marker", SAFETY),
    ("repro.doctor", "_pid_alive", SAFETY),
    ("repro.workflow.results", "StudyResults.load_json", SAFETY),
    ("repro.telemetry", "disable", SAFETY),
    ("repro.telemetry.tracing", "Tracer.close", SAFETY),  # the atexit flush runs after the profiler stops
    ("repro.melissa.launcher", "_columns_of_records", SAFETY),  # resumes a schema-1-to-5 snapshot
    # CLI flags and documented helpers
    ("repro.campaign.cli", "_schedule_table", SURFACE),
    ("repro.telemetry.tracing", "to_chrome", SURFACE),
    ("repro.bench.registry", "scenario_names", SURFACE),
    ("repro.bench.registry", "scenario_groups", SURFACE),
    # views tests read kept state through
    ("repro.breed.acquisition", "LossDeviationTracker.q_value", ORACLE),
    ("repro.breed.acquisition", "LossDeviationTracker.all_q_values", ORACLE),
    ("repro.breed.acquisition", "LossDeviationTracker.observed_ids", ORACLE),
    ("repro.campaign.manifest", "CampaignManifest.executed_run_counts", ORACLE),
    ("repro.campaign.spec", "CampaignSpec.node", ORACLE),
    ("repro.experiments.fig3a", "Fig3aCell.overfit_gap", ORACLE),
    ("repro.experiments.fig3a", "Fig3aResult.cell", ORACLE),
    ("repro.experiments.fig3b", "Fig3bResult.panel", ORACLE),
    ("repro.melissa.reservoir", "Reservoir.entries", ORACLE),
    ("repro.melissa.reservoir", "Reservoir.is_full", ORACLE),
    ("repro.melissa.reservoir", "ReservoirEntry.__post_init__", ORACLE),
    ("repro.nn.module", "Module.num_parameters", ORACLE),
    ("repro.nn.optim", "Optimizer.zero_grad", ORACLE),
    ("repro.nn.tensor", "is_grad_enabled", ORACLE),
    ("repro.nn.tensor", "Tape.counts", ORACLE),
    ("repro.nn.tensor", "Tensor.ndim", ORACLE),
    ("repro.sampling.bounds", "ParameterBounds.volume", ORACLE),
    ("repro.sampling.bounds", "ParameterBounds.center", ORACLE),
    ("repro.sampling.bounds", "ParameterBounds.contains_all", ORACLE),
    ("repro.service.worker", "WorkerPool.alive", ORACLE),
    ("repro.solvers.trajectory", "TimeStepSample.key", ORACLE),
    ("repro.surrogate.model", "SurrogateConfig.label", ORACLE),
    ("repro.surrogate.model", "DirectSurrogate.num_parameters", ORACLE),
    ("repro.surrogate.normalization", "MinMaxScaler.dim", ORACLE),
    ("repro.telemetry", "tracing_enabled", ORACLE),
    ("repro.telemetry.metrics", "Gauge.inc", ORACLE),
    ("repro.telemetry.metrics", "*.values", ORACLE),
    ("repro.telemetry.tracing", "Tracer.depth", ORACLE),
    ("repro.utils.rng", "RngStreams.seed", ORACLE),
    ("repro.workflow.executor", "JsonlCheckpoint.exists", ORACLE),
    ("repro.workflow.study", "StudyRunner.shared_*", ORACLE),
]

Key = Tuple[str, int]


@dataclasses.dataclass(frozen=True)
class Function:
    module: str
    qualname: str
    lineno: int


# ---------------------------------------------------------------------------
# What exists: every function defined under src/repro
# ---------------------------------------------------------------------------


def _is_declaration(node: ast.FunctionDef) -> bool:
    """Abstract/overload stubs and bodies that only ``raise NotImplementedError``."""
    for decorator in node.decorator_list:
        name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
        if name in ("abstractmethod", "overload"):
            return True
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if len(body) == 1 and isinstance(body[0], ast.Raise):
        raised = body[0].exc
        raised = raised.func if isinstance(raised, ast.Call) else raised
        return getattr(raised, "id", "") == "NotImplementedError"
    return False


def _is_protocol(node: ast.ClassDef) -> bool:
    return any(
        (base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")) == "Protocol"
        for base in node.bases
    )


def source_functions(src: Path = SRC) -> Dict[Key, Function]:
    """Every function and method under ``src/repro``, keyed like a code object.

    The key is ``(path, first line)``, where the first line is the first
    decorator's, as in ``code.co_firstlineno``.
    """
    functions: Dict[Key, Function] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module[: -len(".__init__")] if module.endswith(".__init__") else module
        tree = ast.parse(path.read_text(), filename=str(path))
        filename = str(path.resolve())

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    if not _is_protocol(child):
                        visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not _is_declaration(child):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        functions[(filename, first)] = Function(module, prefix + child.name, child.lineno)
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


# ---------------------------------------------------------------------------
# What runs: function entries seen by the profiler
# ---------------------------------------------------------------------------


class Recorder:
    """Collect the code objects entered while installed, forked children included.

    A forked child inherits the profiler; the code it enters first is appended
    to ``<log_dir>/entered-<pid>.txt`` as it happens, because a pool worker
    leaves through ``os._exit`` and would lose anything buffered.
    """

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = log_dir
        self.pid = os.getpid()
        self.seen: Set[types.CodeType] = set()

    def _profile(self, frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if code in self.seen:
            return
        self.seen.add(code)
        if os.getpid() != self.pid:
            line = f"{code.co_filename}\t{code.co_firstlineno}\n".encode()
            fd = os.open(self.log_dir / f"entered-{os.getpid()}.txt", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Recorder"]:
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        try:
            yield self
        finally:
            sys.setprofile(None)
            threading.setprofile(None)  # type: ignore[arg-type]

    def entered(self) -> Set[Key]:
        keys = {(code.co_filename, code.co_firstlineno) for code in self.seen}
        for log in self.log_dir.glob("entered-*.txt"):
            for line in log.read_text().splitlines():
                filename, first = line.rsplit("\t", 1)
                keys.add((filename, int(first)))
        return {(os.path.realpath(filename), first) for filename, first in keys}


def expect(condition: object, what: str) -> None:
    """Fail the run when a driven path did not do what it should (kept under ``-O``)."""
    if not condition:
        raise RuntimeError(f"driven path failed: {what}")


def keep_reason(function: Function) -> Optional[str]:
    for module, qualname, reason in KEEP:
        if fnmatch.fnmatchcase(function.module, module) and fnmatch.fnmatchcase(function.qualname, qualname):
            return reason
    return None


# ---------------------------------------------------------------------------
# The paths driven
# ---------------------------------------------------------------------------


def drive_experiments(work: Path) -> None:
    from repro.cli import EXPERIMENTS, main

    out = work / "experiments"
    expect(main(["--list"]) == 0, "repro --list")
    for name in sorted(EXPERIMENTS):
        expect(main([name, "--scale", "smoke", "--backend", "serial", "--out", str(out)]) == 0, f"repro {name}")
    telemetry = ["--metrics", "--trace", str(work / "trace")]
    expect(main(["overhead", "--scale", "smoke", "--out", str(out / "telemetry"), *telemetry]) == 0,
           "repro overhead --metrics --trace")
    fig3a = ["fig3a", "--scale", "smoke", "--hidden", "16", "--layers", "1", "--out", str(out / "restore"),
             "--checkpoint-every", "20"]
    expect(main(fig3a) == 0, "repro fig3a --checkpoint-every")
    expect(main(fig3a + ["--restore"]) == 0, "repro fig3a --restore")
    expect(main(["fig4", "--scale", "smoke", "--seeds", "0-1", "--out", str(out / "seeds")]) == 0,
           "repro fig4 --seeds 0-1")
    runs = str(out / "seeds" / "fig4_smoke.runs.jsonl")
    expect(main(["compare", runs]) == 0, "repro compare")
    expect(main(["compare", runs, "--json"]) == 0, "repro compare --json")


def drive_bench(work: Path) -> None:
    from repro.cli import main

    report = str(work / "BENCH.json")
    once = ["--repeats", "1", "--warmup", "0"]
    expect(main(["bench", "--list-scenarios"]) == 0, "repro bench --list-scenarios")
    expect(main(["bench", *once, "--out", report]) == 0, "repro bench")
    expect(main(["bench", "--scenario", "solver/heat1d", *once, "--compare", report, "--threshold", "1000"]) == 0,
           "repro bench --compare")


def _tiny_campaign() -> dict:
    from repro.experiments.base import base_config

    config = dataclasses.replace(
        base_config("smoke", method="breed", seed=5),
        n_simulations=4, max_iterations=20, n_validation_trajectories=2, hidden_size=8,
    )
    return {
        "name": "reachability",
        "config": config.to_dict(),
        "backend": "serial",
        "nodes": [
            {"name": "src", "configurations": [{"sigma": 0.1}, {"sigma": 0.3}]},
            {"name": "join", "depends_on": ["src"],
             "select": {"type": "top_k", "node": "src", "metric": "final_validation_loss", "k": 1,
                        "overrides": {"max_iterations": 24}}},
        ],
    }


def drive_campaign(work: Path) -> None:
    from repro.cli import main

    spec_file = work / "campaign.json"
    spec_file.write_text(json.dumps(_tiny_campaign()))
    root = str(work / "campaign")
    expect(main(["campaign", str(spec_file), "--root", root]) == 0, "repro campaign")
    expect(main(["campaign", "--root", root, "--resume"]) == 0, "repro campaign --resume")


def drive_service(work: Path) -> None:
    from repro.experiments.base import base_config
    from repro.service import ServiceClient, StudyService

    config = dataclasses.replace(
        base_config("smoke", method="breed", seed=2), n_simulations=4, max_iterations=20,
        n_validation_trajectories=2,
    ).to_dict()
    service = StudyService(work / "service", port=0, n_workers=1, checkpoint_every=10).start()
    try:
        client = ServiceClient(service.url, timeout=60.0)
        expect(client.health()["status"] == "ok", "service health")
        configurations = [{"method": "breed"}, {"method": "random"}]
        job = client.submit("reachability", config, configurations=configurations)
        expect(client.wait(job["id"], timeout=120.0, poll_seconds=0.02)["state"] == "done", "study job done")
        again = client.submit("reachability", config, configurations=configurations)
        expect(again.get("deduplicated") and again["id"] == job["id"], "resubmit deduplicated")
        expect(client.events(job["id"])[-1]["event"] == "done", "events end with done")
        expect(list(client.stream(job["id"]))[-1]["event"] == "done", "stream ends with done")
        expect(len(client.result(job["id"])["runs"]) == 2, "result holds both runs")
        campaign = client.submit_campaign(_tiny_campaign())
        expect(client.wait(campaign["id"], timeout=120.0, poll_seconds=0.02)["state"] == "done",
               "campaign job done")
        expect(len(client.jobs()) == 2, "two jobs listed")
        client.metrics()
    finally:
        service.stop()


def drive_serve(work: Path) -> None:
    """``repro serve`` until the SIGINT a watcher sends once it waits for jobs."""
    from repro.cli import main

    root = work / "serve"
    main_thread = threading.main_thread().ident

    def serving() -> bool:
        frame = sys._current_frames().get(main_thread)
        while frame is not None:
            if frame.f_code.co_name == "wait" and frame.f_code.co_filename.endswith("server.py"):
                return True
            frame = frame.f_back
        return False

    def interrupt_when_listening() -> None:
        while not serving():
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGINT)

    watcher = threading.Thread(target=interrupt_when_listening, daemon=True)
    watcher.start()
    try:
        expect(main(["serve", "--root", str(root), "--port", "0"]) == 0, "repro serve stops cleanly")
    finally:
        watcher.join()
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def drive_snapshot(work: Path) -> None:
    from repro.api.session import TrainingSession
    from repro.checkpoint import restore_session, save_session
    from repro.experiments.base import base_config

    config = dataclasses.replace(base_config("smoke", method="breed", seed=4), max_iterations=40)
    live = TrainingSession(config)
    for _ in range(6):
        live.tick()
    restored = restore_session(save_session(live, work / "snapshots"))
    expect(restored.run().history.train_losses == live.run().history.train_losses, "restore == live")


def drive_doctor(work: Path) -> None:
    from repro.cli import main

    expect(main(["doctor", str(work)]) in (0, 1), "repro doctor")


def drive_examples(work: Path) -> None:
    """Every ``examples/*.py`` as ``__main__``, from inside the work directory."""
    argv, cwd = sys.argv, os.getcwd()
    os.chdir(work)
    try:
        for example in sorted((REPO_ROOT / "examples").glob("*.py")):
            sys.argv = [str(example)]
            runpy.run_path(str(example), run_name="__main__")
    finally:
        sys.argv = argv
        os.chdir(cwd)


def drive_check_docs(work: Path) -> None:
    namespace = runpy.run_path(str(REPO_ROOT / "scripts" / "check_docs.py"))
    expect(namespace["main"]() == 0, "scripts/check_docs.py")


def drive_benchmark_workloads(work: Path) -> None:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from e2e.workloads import SHRUNK_COUNTS, SHRUNK_SHAPE, WORKLOADS, Harness
    finally:
        sys.path.remove(str(REPO_ROOT / "benchmarks"))
    for name, workload in WORKLOADS.items():
        out = work / "e2e" / name
        out.mkdir(parents=True)
        harness = Harness(seed=3, counts=SHRUNK_COUNTS[name], out=out, shape=SHRUNK_SHAPE)
        workload(harness)
        expect(not harness.failures, f"{name}: {harness.failures}")


#: every path, in order; ``doctor`` reads what the others left behind
PATHS: List[Tuple[str, Callable[[Path], None]]] = [
    ("experiments", drive_experiments),
    ("bench", drive_bench),
    ("campaign", drive_campaign),
    ("service", drive_service),
    ("serve", drive_serve),
    ("snapshot", drive_snapshot),
    ("examples", drive_examples),
    ("check_docs", drive_check_docs),
    ("benchmark workloads", drive_benchmark_workloads),
    ("doctor", drive_doctor),
]


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def report(functions: Dict[Key, Function], entered: Set[Key]) -> Tuple[str, int]:
    """The never-entered functions by module, and how many lack a keep reason."""
    by_module: Dict[str, List[Function]] = {}
    totals: Dict[str, int] = {}
    for key, function in functions.items():
        totals[function.module] = totals.get(function.module, 0) + 1
        if key not in entered:
            by_module.setdefault(function.module, []).append(function)
    lines: List[str] = []
    missing = 0
    for module in sorted(by_module):
        lines.append(f"{module}  ({len(by_module[module])} of {totals[module]})")
        for function in sorted(by_module[module], key=lambda f: f.lineno):
            reason = keep_reason(function)
            missing += reason is None
            lines.append(f"  {function.qualname:<48} L{function.lineno:<5} {reason or 'NO KEEP REASON'}")
    never = sum(len(v) for v in by_module.values())
    lines.append(
        f"never entered: {never} of {len(functions)} functions in {len(totals)} modules; "
        f"{missing} without a keep reason"
    )
    return "\n".join(lines), missing


def main(argv: Optional[List[str]] = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    # One CPU before anything imports repro: solver work stays in-process.
    os.sched_setaffinity(0, {0})
    sys.path.insert(0, str(SRC))
    functions = source_functions()
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        work = Path(tmp)
        (work / "logs").mkdir()
        recorder = Recorder(work / "logs")
        with recorder.installed():
            for name, drive in PATHS:
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    drive(work)
                print(f"path {name:<20} {time.perf_counter() - start:6.1f} s", file=sys.stderr)
        from repro.melissa.workers import inline_reason

        expect(inline_reason() == "single_cpu", f"solver work inline on one CPU, got {inline_reason()}")
        entered = recorder.entered()
    text, missing = report(functions, entered)
    print(text)
    return 1 if missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
