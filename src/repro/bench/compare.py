"""Report comparison: percent-delta tables and the regression gate.

:func:`compare_reports` matches two schema-valid reports by scenario name and
computes the percent delta of the best-of-repeats wall time (positive ⇒ the
current report is *slower*).  A scenario regresses when its delta exceeds the
configurable threshold; :func:`format_comparison` renders the table the CLI
prints, and the CLI exits non-zero (:data:`REGRESSION_EXIT_CODE`) when any
scenario regressed — that exit code is the CI contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.schema import validate_report

__all__ = [
    "REGRESSION_EXIT_CODE",
    "DEFAULT_THRESHOLD_PCT",
    "ScenarioDelta",
    "Comparison",
    "compare_reports",
    "format_comparison",
]

#: ``bench --compare`` exit code on regression (distinct from argparse's 2)
REGRESSION_EXIT_CODE = 3

#: default regression threshold: percent slowdown of best wall time
DEFAULT_THRESHOLD_PCT = 15.0


@dataclass(frozen=True)
class ScenarioDelta:
    """Best-time comparison of one scenario present in both reports."""

    name: str
    baseline_seconds: float
    current_seconds: float
    #: percent change of best wall time; positive ⇒ current is slower
    delta_pct: float
    #: True when ``delta_pct`` exceeds the comparison threshold
    regressed: bool


@dataclass(frozen=True)
class Comparison:
    """Full result of comparing a current report against a baseline."""

    deltas: Tuple[ScenarioDelta, ...]
    threshold_pct: float
    #: scenario names present in only one of the two reports
    only_in_baseline: Tuple[str, ...]
    only_in_current: Tuple[str, ...]

    @property
    def regressions(self) -> Tuple[ScenarioDelta, ...]:
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)


def compare_reports(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> Comparison:
    """Compare two schema-valid reports scenario by scenario.

    Scenarios are matched by name; ones present in only one report are
    listed, not failed (a new scenario must not need a regenerated baseline
    to land, and a retired one must not block CI forever).  ``threshold_pct``
    is the allowed percent slowdown of the best wall time.
    """
    if threshold_pct < 0:
        raise ValueError("threshold_pct must be non-negative")
    validate_report(baseline)
    validate_report(current)
    base_by_name = {entry["name"]: entry for entry in baseline["results"]}
    cur_by_name = {entry["name"]: entry for entry in current["results"]}
    deltas: List[ScenarioDelta] = []
    for name in sorted(set(base_by_name) & set(cur_by_name)):
        base_best = float(base_by_name[name]["best_seconds"])
        cur_best = float(cur_by_name[name]["best_seconds"])
        delta_pct = (cur_best - base_best) / base_best * 100.0
        deltas.append(
            ScenarioDelta(
                name=name,
                baseline_seconds=base_best,
                current_seconds=cur_best,
                delta_pct=delta_pct,
                regressed=delta_pct > threshold_pct,
            )
        )
    return Comparison(
        deltas=tuple(deltas),
        threshold_pct=threshold_pct,
        only_in_baseline=tuple(sorted(set(base_by_name) - set(cur_by_name))),
        only_in_current=tuple(sorted(set(cur_by_name) - set(base_by_name))),
    )


def format_comparison(comparison: Comparison, baseline_label: Optional[str] = None) -> str:
    """Render the comparison as the table ``bench --compare`` prints."""
    from repro.analysis.report import format_table

    rows = [
        (
            delta.name,
            f"{delta.baseline_seconds * 1e3:.3f}",
            f"{delta.current_seconds * 1e3:.3f}",
            f"{delta.delta_pct:+.1f}%",
            "REGRESSED" if delta.regressed else ("faster" if delta.delta_pct < 0 else "ok"),
        )
        for delta in comparison.deltas
    ]
    lines = []
    if baseline_label:
        lines.append(f"baseline: {baseline_label}")
    lines.append(
        format_table(["scenario", "baseline ms", "current ms", "delta", "status"], rows)
    )
    for name in comparison.only_in_baseline:
        lines.append(f"warning: {name} only in baseline — skipped (retired scenario?)")
    for name in comparison.only_in_current:
        lines.append(f"warning: {name} only in current report — skipped (no baseline yet)")
    if comparison.has_regressions:
        worst = max(comparison.regressions, key=lambda d: d.delta_pct)
        lines.append(
            f"REGRESSION: {len(comparison.regressions)} scenario(s) slower than the "
            f"{comparison.threshold_pct:g}% threshold (worst: {worst.name} {worst.delta_pct:+.1f}%)"
        )
    else:
        lines.append(f"no regressions (threshold {comparison.threshold_pct:g}%)")
    return "\n".join(lines)
