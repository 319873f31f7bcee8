"""Every durable file in ``src/`` goes through ``repro.utils.durable``.

Appends (``open(…, "a")``, ``os.O_APPEND``) and temp-file replacements
(``os.replace``, ``mkstemp``) anywhere else would be another hand-rolled
writer with its own torn-tail and fsync behaviour; this test keeps them out.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = SRC / "repro" / "utils" / "durable.py"


def _name(node: ast.AST) -> str:
    """The identifier an ``x`` / ``a.x`` expression ends in ("" otherwise)."""
    return getattr(node, "attr", None) or getattr(node, "id", None) or ""


def _offences(tree: ast.AST):
    for node in ast.walk(tree):
        name = _name(node)
        if name in ("replace", "O_APPEND") and _name(getattr(node, "value", None)) == "os":
            yield node.lineno, f"os.{name}"
        elif name == "mkstemp":
            yield node.lineno, "mkstemp"
        elif isinstance(node, ast.Call) and _name(node.func) == "open":
            modes = node.args + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(isinstance(m, ast.Constant) and str(m.value).startswith("a") for m in modes):
                yield node.lineno, "open(…, 'a')"


def test_no_durable_writer_outside_the_durable_module():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path == ALLOWED:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{line}: {what}" for line, what in _offences(tree)]
    assert not found, "use repro.utils.durable (AppendLog / atomic_write):\n" + "\n".join(found)


def test_the_guard_sees_each_form():
    source = (
        "import os, tempfile\n"
        "open(p, 'a')\n"
        "path.open(mode='ab')\n"
        "os.replace(a, b)\n"
        "tempfile.mkstemp()\n"
        "os.open(p, os.O_WRONLY | os.O_APPEND)\n"
        "text.replace('a', 'b')\n"
        "open(p, 'w')\n"
    )
    assert [line for line, _ in _offences(ast.parse(source))] == [2, 3, 4, 5, 6]
