"""Documentation contract: intra-repo links resolve, doc examples execute.

Mirrors the CI docs job (``scripts/check_docs.py``) inside the tier-1 suite
so stale links or drifted examples fail fast, locally.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from check_docs import (  # noqa: E402
    DOCTESTED,
    check_links,
    markdown_files,
    run_doctests,
)


def test_docs_tree_exists():
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").is_file()
    assert (REPO_ROOT / "docs" / "WORKLOADS.md").is_file()


def test_readme_links_the_docs_tree():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/WORKLOADS.md" in readme


def test_intra_repo_markdown_links_resolve():
    paths = markdown_files()
    assert any(p.name == "ARCHITECTURE.md" for p in paths)
    broken = check_links(paths)
    assert not broken, f"broken relative links: {broken}"


def test_workloads_guide_examples_execute():
    assert "docs/WORKLOADS.md" in DOCTESTED
    failures = run_doctests()
    assert not failures, f"doc examples failed: {failures}"


def test_architecture_doc_names_real_modules():
    """Module pointers in ARCHITECTURE.md must reference importable modules."""
    import importlib
    import re

    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    modules = sorted(set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", text)))
    assert len(modules) > 10  # the doc is a map; it must actually point places
    for name in modules:
        candidate = name
        # trailing attribute references (repro.api.config.OnlineTrainingConfig
        # style) are resolved by importing the longest importable prefix
        while candidate:
            try:
                importlib.import_module(candidate)
                break
            except ModuleNotFoundError:
                candidate = candidate.rpartition(".")[0]
        assert candidate, f"ARCHITECTURE.md references unknown module {name!r}"


def test_paper_map_names_real_functions_and_tests():
    """Every ``repro.…`` name in PAPER_MAP.md is an attribute of a module, not
    only a module, and every test it cites exists, down to its ``::`` names."""
    import importlib
    import re

    text = (REPO_ROOT / "docs" / "PAPER_MAP.md").read_text()
    names = sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", text)))
    assert len(names) >= 8
    for name in names:
        parts = name.split(".")
        split = len(parts)
        while split > 1:
            try:
                target = importlib.import_module(".".join(parts[:split]))
                break
            except ModuleNotFoundError:
                split -= 1
        assert split < len(parts), f"PAPER_MAP.md names {name!r}, a module, not a function"
        for attribute in parts[split:]:
            assert hasattr(target, attribute), f"PAPER_MAP.md names unknown {name!r}"
            target = getattr(target, attribute)
    tests = sorted(set(re.findall(r"`(tests/[\w/]+\.py)((?:::\w+)*)`", text)))
    assert len(tests) >= 8
    for path, nodes in tests:
        source = (REPO_ROOT / path).read_text() if (REPO_ROOT / path).is_file() else ""
        assert source, f"PAPER_MAP.md cites missing test file {path}"
        for node in nodes.split("::")[1:]:
            assert re.search(rf"^\s*(def|class) {node}\b", source, re.M), f"{path}::{node} not found"
