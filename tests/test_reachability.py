"""``scripts/reachability.py``: what it counts, what it records, what it keeps.

The full run drives every experiment and takes about half a minute, so it is
not part of the suite; these tests cover the pieces it is built from.
"""

from __future__ import annotations

import fnmatch
import importlib.util
import os
import sys
import textwrap
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from reachability import KEEP, Function, Recorder, keep_reason, report, source_functions  # noqa: E402

MODULE = '''
import abc
from typing import Protocol


def deco(fn):
    return fn


@deco
def decorated():
    return 1


def outer():
    def inner():
        return 2

    return inner()


class Thing:
    def method(self):
        return 3


class Base(abc.ABC):
    @abc.abstractmethod
    def abstract(self):
        """Declared only."""

    def todo(self):
        """Subclasses implement it."""
        raise NotImplementedError

    def concrete(self):
        return 4


class Proto(Protocol):
    def member(self) -> int:
        ...
'''


def _package(tmp_path: Path):
    """A one-module ``repro`` tree under ``tmp_path/src`` and the loaded module."""
    path = tmp_path / "src" / "repro" / "toy.py"
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent(MODULE))
    spec = importlib.util.spec_from_file_location("reachability_toy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tmp_path / "src", module


def test_source_functions_counts_code_not_declarations(tmp_path):
    src, _ = _package(tmp_path)
    functions = source_functions(src)
    assert {f.qualname for f in functions.values()} == {
        "deco",
        "decorated",
        "outer",
        "outer.<locals>.inner",
        "Thing.method",
        "Base.concrete",
    }
    assert {f.module for f in functions.values()} == {"repro.toy"}


def test_source_keys_match_code_objects(tmp_path):
    src, module = _package(tmp_path)
    functions = source_functions(src)
    for name in ("decorated", "outer"):
        code = getattr(module, name).__code__
        key = (os.path.realpath(code.co_filename), code.co_firstlineno)
        assert functions[key].qualname == name


def test_recorder_sees_threads_and_forked_children(tmp_path):
    src, module = _package(tmp_path)
    (tmp_path / "logs").mkdir()
    recorder = Recorder(tmp_path / "logs")
    with recorder.installed():
        module.outer()
        thread = threading.Thread(target=module.Thing().method)
        thread.start()
        thread.join()
        pid = os.fork()
        if pid == 0:  # the child leaves through os._exit, as a pool worker does
            module.decorated()
            os._exit(0)
        os.waitpid(pid, 0)
    functions = source_functions(src)
    entered = {functions[key].qualname for key in recorder.entered() if key in functions}
    assert entered == {"outer", "outer.<locals>.inner", "Thing.method", "decorated"}


def test_first_matching_rule_gives_the_reason():
    assert keep_reason(Function("repro.nn.tensor", "Tensor.__len__", 1)).startswith("data model")
    assert keep_reason(Function("repro.nn.tensor", "Tensor.__matmul__", 1)).startswith("registry")
    assert keep_reason(Function("repro.melissa.workers", "SolverWorkers.run", 1)).startswith("two-cpu")
    assert keep_reason(Function("repro.nn.optim", "SGD.step", 1)) is None


def test_report_lists_never_entered_functions_by_module():
    functions = {
        ("a.py", 1): Function("repro.nn.optim", "Adam.step", 10),
        ("a.py", 2): Function("repro.nn.optim", "SGD.step", 20),
        ("b.py", 1): Function("repro.melissa.workers", "SolverWorkers.run", 5),
    }
    text, missing = report(functions, entered={("a.py", 1)})
    lines = text.splitlines()
    assert lines[0] == "repro.melissa.workers  (1 of 1)"
    assert "repro.nn.optim  (1 of 2)" in lines
    assert any(line.split()[0] == "SGD.step" and line.endswith("NO KEEP REASON") for line in lines)
    assert missing == 1
    assert lines[-1].startswith("never entered: 2 of 3 functions in 2 modules; 1 without")


def test_every_keep_rule_names_a_function_that_exists():
    """A rule whose function was deleted must go with it."""
    functions = list(source_functions().values())
    stale = [
        (module, qualname)
        for module, qualname, _ in KEEP
        if not any(
            fnmatch.fnmatchcase(f.module, module) and fnmatch.fnmatchcase(f.qualname, qualname)
            for f in functions
        )
    ]
    assert not stale
