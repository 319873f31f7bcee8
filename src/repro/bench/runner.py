"""Benchmark runner: warmup/repeat timing and schema-versioned reports.

:func:`run_scenarios` drives a deterministic scenario selection (see
:mod:`repro.bench.registry`) with explicit warmup and repeat control and
returns a report dictionary matching :mod:`repro.bench.schema`.  Headline
numbers use the **best-of-repeats** wall time — the standard
noise-suppression estimator for single-machine benches (the minimum is the
run least disturbed by the OS), which matters on the 1-CPU boxes CI uses.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.registry import BenchScenario, select_scenarios
from repro.bench.schema import BENCH_SCHEMA_VERSION, validate_report
from repro.utils.durable import atomic_write

__all__ = [
    "env_fingerprint",
    "run_scenario",
    "run_scenarios",
    "write_report",
    "load_report",
]


def env_fingerprint() -> Dict[str, Any]:
    """Machine/toolchain fingerprint embedded in every report.

    Comparisons across different fingerprints are allowed (the compare path
    prints both) but percent deltas are only meaningful within one machine.
    """
    try:
        import scipy

        scipy_version = scipy.__version__
    except Exception:  # pragma: no cover - scipy is a hard dependency
        scipy_version = "unavailable"
    try:
        git_sha: Optional[str] = (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=Path(__file__).resolve().parent,
            ).stdout.strip()
            or None
        )
    except Exception:
        git_sha = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": git_sha,
    }


def run_scenario(scenario: BenchScenario, repeats: int = 3, warmup: int = 1) -> Dict[str, Any]:
    """Build and time one scenario; returns its report entry.

    The setup callable runs outside the timed region; ``warmup`` untimed
    calls absorb lazy imports, allocator warmup and CPU frequency ramp;
    ``repeats`` timed calls populate ``wall_times``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    run = scenario.build()
    try:
        n_units = 0
        for _ in range(warmup):
            n_units = run.fn()
        wall_times: List[float] = []
        for _ in range(repeats):
            start = time.perf_counter()
            n_units = run.fn()
            wall_times.append(time.perf_counter() - start)
    finally:
        if run.cleanup is not None:
            run.cleanup()
    if n_units <= 0:
        raise RuntimeError(f"scenario {scenario.name!r} reported no work units")
    best = min(wall_times)
    return {
        "name": scenario.name,
        "group": scenario.group,
        "units": scenario.units,
        "n_units": n_units,
        "repeats": repeats,
        "warmup": warmup,
        "wall_times": wall_times,
        "best_seconds": best,
        "mean_seconds": sum(wall_times) / len(wall_times),
        "units_per_second": n_units / best,
    }


def run_scenarios(
    names: Optional[Sequence[str]] = None,
    groups: Optional[Sequence[str]] = None,
    repeats: int = 3,
    warmup: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run a scenario selection and return a schema-valid report dict."""
    scenarios = select_scenarios(names=names, groups=groups)
    results = []
    for scenario in scenarios:
        if progress is not None:
            progress(f"bench: {scenario.name} ...")
        entry = run_scenario(scenario, repeats=repeats, warmup=warmup)
        if progress is not None:
            progress(
                f"bench: {scenario.name}: best {entry['best_seconds'] * 1e3:.2f} ms "
                f"({entry['units_per_second']:.1f} {scenario.units}/s)"
            )
        results.append(entry)
    report = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_unix": time.time(),
        "env": env_fingerprint(),
        "settings": {"repeats": repeats, "warmup": warmup},
        "results": results,
    }
    return validate_report(report)


def write_report(report: Dict[str, Any], path: str | Path) -> Path:
    """Validate and write a report as pretty-printed JSON; returns the path."""
    validate_report(report)
    return atomic_write(path, json.dumps(report, indent=1, sort_keys=True) + "\n")


def load_report(path: str | Path) -> Dict[str, Any]:
    """Read and schema-validate a report written by :func:`write_report`."""
    return validate_report(json.loads(Path(path).read_text()))
