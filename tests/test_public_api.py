"""Public-API smoke tests: every module imports and every ``__all__`` resolves.

The module list is derived from the package tree, so a package or module
added later is checked without editing this file.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))
PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


def test_module_tree_is_discovered():
    assert {"repro.telemetry", "repro.checkpoint", "repro.campaign", "repro.service", "repro.bench"} <= set(
        PACKAGES
    )
    assert "repro.nn.tensor" in MODULES


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_imports(package_name):
    module = importlib.import_module(package_name)
    assert module is not None


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{package_name}.__all__ lists missing attribute {name!r}"


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_is_unique_and_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = list(getattr(module, "__all__", []))
    assert len(exported) == len(set(exported)), f"{module_name}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists missing attributes {missing}"


def test_top_level_convenience_exports():
    import repro

    assert repro.__version__
    assert callable(repro.run_online_training)
    assert repro.OnlineTrainingConfig is not None
    assert repro.OnlineTrainingResult is not None
    assert repro.TrainingSession is not None
    assert callable(repro.register_workload)
    assert {"heat2d", "heat1d", "analytic"} <= set(repro.workload_names())


def test_examples_are_syntactically_valid():
    """Every example script must at least compile (full runs are exercised manually)."""
    import pathlib
    import py_compile

    examples_dir = pathlib.Path(__file__).resolve().parents[1] / "examples"
    scripts = sorted(examples_dir.glob("*.py"))
    assert len(scripts) >= 3, "the repository must ship at least three examples"
    for script in scripts:
        py_compile.compile(str(script), doraise=True)
