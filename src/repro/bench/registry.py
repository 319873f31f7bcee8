"""Registry of named benchmark scenarios.

A *scenario* is one reproducible measurement of a hot path: a setup callable
that builds all state outside the timed region, returning a
:class:`ScenarioRun` whose ``fn`` is the timed body.  ``fn`` returns the
number of work units it processed (solver steps, training batches, samples…),
from which the runner derives a throughput.

Scenarios are registered with the :func:`register_scenario` decorator and
addressed by ``group/name`` keys (``solver/heat2d``, ``nn/tape_overhead``);
selection by explicit names or whole groups is deterministic — the same
request always yields the same scenarios in the same (sorted) order, which
keeps ``bench --compare`` tables stable across machines and runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ScenarioRun",
    "BenchScenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "scenario_groups",
    "select_scenarios",
]


@dataclass
class ScenarioRun:
    """The built, ready-to-time form of a scenario.

    Attributes
    ----------
    fn:
        The timed body; called once per (warmup or measured) repeat and
        returning the number of work units processed in that call.
    cleanup:
        Optional teardown (temp dirs, pools) invoked after the last repeat.
    """

    fn: Callable[[], int]
    cleanup: Optional[Callable[[], None]] = None


@dataclass(frozen=True)
class BenchScenario:
    """One registered benchmark scenario (see module docstring).

    Attributes
    ----------
    name:
        Unique ``group/short-name`` key, e.g. ``"solver/heat1d"``.
    group:
        The part before the ``/`` — selected together via ``--group``.
    units:
        Human-readable unit of the returned work count (``"steps"``,
        ``"batches"``, ``"samples"``, ``"runs"``…).
    description:
        One line shown by ``bench --list-scenarios``.
    build:
        Setup callable executed outside the timed region.
    """

    name: str
    group: str
    units: str
    description: str
    build: Callable[[], ScenarioRun] = field(compare=False)


_SCENARIOS: Dict[str, BenchScenario] = {}


def register_scenario(
    name: str, *, units: str, description: str
) -> Callable[[Callable[[], ScenarioRun]], Callable[[], ScenarioRun]]:
    """Register a scenario builder under ``name`` (``"group/short-name"``).

    The decorated callable runs at *bench time*, not import time: it builds
    solvers/models/sessions and returns a :class:`ScenarioRun`.  Registering
    the same name twice raises ``ValueError`` (silent replacement would make
    two reports with the same scenario name incomparable).
    """
    if "/" not in name:
        raise ValueError(f"scenario name must look like 'group/name', got {name!r}")
    group = name.split("/", 1)[0]

    def decorator(build: Callable[[], ScenarioRun]) -> Callable[[], ScenarioRun]:
        if name in _SCENARIOS:
            raise ValueError(f"scenario {name!r} is already registered")
        _SCENARIOS[name] = BenchScenario(
            name=name, group=group, units=units, description=description, build=build
        )
        return build

    return decorator


def get_scenario(name: str) -> BenchScenario:
    """Look up one scenario; raises ``KeyError`` listing the options."""
    _ensure_builtin()
    if name not in _SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; options: {scenario_names()}")
    return _SCENARIOS[name]


def scenario_names() -> List[str]:
    """Every registered scenario name, sorted (the canonical run order)."""
    _ensure_builtin()
    return sorted(_SCENARIOS)


def scenario_groups() -> List[str]:
    """Every registered group, sorted."""
    _ensure_builtin()
    return sorted({s.group for s in _SCENARIOS.values()})


def select_scenarios(
    names: Optional[Sequence[str]] = None,
    groups: Optional[Sequence[str]] = None,
) -> Tuple[BenchScenario, ...]:
    """Resolve a deterministic, duplicate-free scenario selection.

    With neither ``names`` nor ``groups`` the full registry is returned.
    Unknown names or groups raise ``KeyError`` — a CI job silently running
    zero scenarios would defeat the regression gate.  The result is always
    sorted by name, independent of request order.
    """
    _ensure_builtin()
    if not names and not groups:
        selected = set(_SCENARIOS)
    else:
        selected = set()
        known_groups = {s.group for s in _SCENARIOS.values()}
        for group in groups or ():
            if group not in known_groups:
                raise KeyError(f"unknown group {group!r}; options: {sorted(known_groups)}")
            selected.update(n for n, s in _SCENARIOS.items() if s.group == group)
        for name in names or ():
            if name not in _SCENARIOS:
                raise KeyError(f"unknown scenario {name!r}; options: {scenario_names()}")
            selected.add(name)
    return tuple(_SCENARIOS[name] for name in sorted(selected))


def _ensure_builtin() -> None:
    """Import the built-in scenario definitions exactly once."""
    from repro.bench import scenarios  # noqa: F401  (import registers them)
