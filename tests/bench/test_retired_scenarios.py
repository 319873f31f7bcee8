"""The retired ``repro bench`` scenarios stay covered by the repo benchmark.

Seventeen scenarios were deleted because a traced layer of
``benchmarks/e2e`` times the same call, or a CI gate runs the same probe.
These tests keep that reason true: each name is gone from the registry and
``repro bench`` refuses it, each call a scenario timed still runs inside the
benchmark span of its layer, and docs/PERFORMANCE.md maps every name.  The
benchmark's files are only read, never edited.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path
from typing import Dict, List, Set

import pytest

from repro.bench import scenario_names
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]
E2E = REPO_ROOT / "benchmarks" / "e2e"

#: retired scenario -> (span, call) pairs: a call the scenario timed, spelled
#: ``Owner.attr`` for a layer wrapper (``Owner`` a class or the last part of a
#: module name) or as the called name inside a workload's ``h.span`` block
TRACED_BY: Dict[str, List[tuple]] = {
    "nn/forward": [("nn.forward", "DirectSurrogate.forward")],
    "nn/train_step": [
        ("nn.forward", "DirectSurrogate.forward"),
        ("nn.loss", "functional.per_sample_mse"),
        ("nn.backward", "Tensor.backward"),
        ("nn.optimizer", "Adam.step"),
    ],
    "nn/loss_step": [
        ("nn.loss", "functional.per_sample_mse"),
        ("nn.loss", "Tensor.mean"),
        ("nn.backward", "Tensor.backward"),
    ],
    "nn/optimizer_step": [("nn.optimizer", "Adam.step")],
    "validation/build": [("surrogate.valset_build", "session.validation_set_for_workload")],
    "validation/eval": [("surrogate.validation_eval", "server.validation_loss")],
    "reservoir/ingest": [
        ("melissa.receive", "TrainingSession.receive"),
        ("melissa.draw", "Reservoir.sample_batch"),
    ],
    "reservoir/draw": [("melissa.draw", "Reservoir.sample_batch")],
    "checkpoint/save": [("checkpoint.save", "policy.save_session")],
    "checkpoint/restore": [("checkpoint.restore", "restore_session")],
    "study/serial": [("workflow.serial", "run_all")],
    "study/process": [("workflow.process", "run_all")],
    "study/process_throughput": [("workflow.process", "run_all")],
    "study/process_workers1": [("workflow.process", "run_all")],
    "study/process_workers2": [("workflow.process", "run_all")],
    "service/submit_roundtrip": [
        ("service.submit", "submit"),
        ("service.wait", "wait"),
        ("service.exec", "Worker.execute"),
    ],
}

#: retired scenario -> the kept scenario a CI gate runs in its place
GATED_BY = {"telemetry/overhead": "session/online_smoke"}

RETIRED = sorted([*TRACED_BY, *GATED_BY])


class _Recorder:
    """Stands in for ``trace.Patches``: records what would be wrapped, wraps nothing."""

    def __init__(self) -> None:
        self.calls: Dict[str, Set[str]] = {}

    def wrap(self, owner, attr: str, span: str, leaf: bool = False) -> None:
        assert callable(getattr(owner, attr))
        owner_name = owner.__name__.rsplit(".", 1)[-1]
        self.calls.setdefault(span, set()).add(f"{owner_name}.{attr}")

    wrap_generator = wrap


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_e2e_{name}", E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _span_name(node: ast.expr) -> str:
    if isinstance(node, ast.Constant):
        return node.value
    assert isinstance(node, ast.JoinedStr), ast.dump(node)
    return "".join(
        part.value if isinstance(part, ast.Constant) else "{" + ast.unparse(part.value) + "}"
        for part in node.values
    )


def _called_name(node: ast.Call) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _workload_spans() -> Dict[str, Set[str]]:
    """Span name -> names called inside each ``with h.span(...)`` of the workloads."""
    tree = ast.parse((E2E / "workloads.py").read_text())
    backends: tuple = ()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "STUDY_BACKENDS" for t in node.targets
        ):
            backends = ast.literal_eval(node.value)
    spans: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.With):
            continue
        for item in node.items:
            call = item.context_expr
            if not (isinstance(call, ast.Call) and _called_name(call) == "span"):
                continue
            name = _span_name(call.args[0])
            called = {
                _called_name(inner)
                for statement in node.body
                for inner in ast.walk(statement)
                if isinstance(inner, ast.Call)
            }
            for expanded in (
                [name.replace("{backend}", b) for b in backends] if "{backend}" in name else [name]
            ):
                spans.setdefault(expanded, set()).update(called)
    return spans


@pytest.fixture(scope="module")
def benchmark_spans() -> Dict[str, Set[str]]:
    trace = _load("trace")
    recorder = _Recorder()
    trace.install_layer_wrappers(recorder)
    trace.install_workflow_wrappers(recorder)
    trace.install_service_wrappers(recorder)
    spans = {span: set(calls) for span, calls in recorder.calls.items()}
    for span, calls in _workload_spans().items():
        spans.setdefault(span, set()).update(calls)
    return spans


@pytest.mark.parametrize("name", sorted(TRACED_BY))
def test_retired_scenario_call_is_timed_by_a_benchmark_span(name, benchmark_spans):
    assert name not in scenario_names()
    for span, call in TRACED_BY[name]:
        assert call in benchmark_spans.get(span, set()), (name, span, call)


def test_telemetry_overhead_is_the_ci_gate_on_the_kept_session_scenario():
    kept = GATED_BY["telemetry/overhead"]
    assert "telemetry/overhead" not in scenario_names()
    assert kept in scenario_names()
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    step = ci.split("name: Telemetry overhead gate", 1)[1].split("- name:", 1)[0]
    dark, telemetry_on = step.split("REPRO_METRICS=1", 1)
    assert f"--scenario {kept}" in dark
    assert f"--scenario {kept}" in telemetry_on
    assert "--compare results/BENCH_dark.json" in telemetry_on


def test_repro_bench_refuses_every_retired_name(capsys):
    for name in RETIRED:
        assert cli_main(["bench", "--scenario", name, "--repeats", "1", "--warmup", "0"]) == 2
        assert "unknown scenario" in capsys.readouterr().err, name


def _expand(token: str) -> List[str]:
    match = re.search(r"\{([^}]*)\}", token)
    if match is None:
        return [token]
    return [
        expanded
        for option in match.group(1).split(",")
        for expanded in _expand(token[: match.start()] + option + token[match.end():])
    ]


def test_performance_doc_maps_every_retired_scenario():
    text = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text()
    paragraph = text.split("Retired scenarios and the benchmark layer", 1)[1].split("\n\n", 1)[0]
    named = {
        expanded for token in re.findall(r"`([^`]+)`", paragraph) for expanded in _expand(token)
    }
    assert set(RETIRED) <= named, sorted(set(RETIRED) - named)
    for calls in TRACED_BY.values():
        for span, _ in calls:
            layer = span.split(".", 1)[0]
            assert any(n.startswith(f"{layer}.") for n in named), span
