"""Experiment orchestration: configuration grids, study runner, executors, results."""

from repro.workflow.executor import (
    BACKENDS,
    Executor,
    JsonlCheckpoint,
    MultiprocessExecutor,
    RunSpec,
    SerialExecutor,
    StudyInputCache,
    TIMING_METRICS,
    execute_spec,
    get_executor,
)
from repro.workflow.grid import one_factor_at_a_time
from repro.workflow.results import RunResult, StudyResults
from repro.workflow.study import StudyRunner, apply_overrides

__all__ = [
    "BACKENDS",
    "Executor",
    "JsonlCheckpoint",
    "MultiprocessExecutor",
    "RunResult",
    "RunSpec",
    "SerialExecutor",
    "StudyInputCache",
    "StudyResults",
    "StudyRunner",
    "TIMING_METRICS",
    "apply_overrides",
    "execute_spec",
    "get_executor",
    "one_factor_at_a_time",
]
