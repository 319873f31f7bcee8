"""``repro.bench`` — micro-scenarios for the hot paths the repo benchmark does not time.

Claims are made with the repo benchmark, ``benchmarks/e2e``, whose traced
layers time the training step, the validation set, the reservoir,
checkpoints, studies and the service.  This subsystem keeps what none of
those layers reaches: a registry of named, deterministic scenarios (solver
stepping for every workload, the explicit heat2d stencil, the composed loss
primitives, the conv surrogate, the tape-recording A/B probe, a small
session and campaign orchestration), a runner with warmup/repeat control
emitting schema-versioned JSON reports, and a comparer with a configurable
percent-slowdown threshold whose non-zero exit code CI jobs can gate on.

Typical use::

    python -m repro.cli bench --out BENCH.json
    python -m repro.cli bench --group nn --compare BENCH.json --threshold 10

or programmatically::

    from repro.bench import run_scenarios, compare_reports

    report = run_scenarios(groups=["solver"])
    comparison = compare_reports(baseline_report, report, threshold_pct=10.0)
    assert not comparison.has_regressions

See ``docs/PERFORMANCE.md`` for the scenario inventory and the
regression-threshold policy, and ``docs/BENCHMARKS.md`` for authoring new
scenarios.
"""

from repro.bench.compare import (
    DEFAULT_THRESHOLD_PCT,
    REGRESSION_EXIT_CODE,
    Comparison,
    ScenarioDelta,
    compare_reports,
    format_comparison,
)
from repro.bench.registry import (
    BenchScenario,
    ScenarioRun,
    get_scenario,
    register_scenario,
    scenario_groups,
    scenario_names,
    select_scenarios,
)
from repro.bench.runner import (
    env_fingerprint,
    load_report,
    run_scenario,
    run_scenarios,
    write_report,
)
from repro.bench.schema import BENCH_SCHEMA_VERSION, BenchSchemaError, validate_report

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_THRESHOLD_PCT",
    "REGRESSION_EXIT_CODE",
    "BenchSchemaError",
    "BenchScenario",
    "Comparison",
    "ScenarioDelta",
    "ScenarioRun",
    "compare_reports",
    "env_fingerprint",
    "format_comparison",
    "get_scenario",
    "load_report",
    "register_scenario",
    "run_scenario",
    "run_scenarios",
    "scenario_groups",
    "scenario_names",
    "select_scenarios",
    "validate_report",
    "write_report",
]
