"""Study result records and persistence.

Study runners return :class:`RunResult` records (one per executed
configuration) grouped into a :class:`StudyResults` container that can render
plain-text tables (``examples/hyperparameter_study.py`` prints one) and round-trip to JSON for
post-hoc analysis.  :meth:`StudyResults.paired` compares two groups of runs
seed by seed (median, IQR, per-seed ratio, wins and an exact sign test).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.durable import atomic_write

__all__ = ["SIGNIFICANCE", "PairedComparison", "RunResult", "StudyResults", "sign_test_p", "verdict"]


def _to_jsonable(value: Any) -> Any:
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    return value


@dataclass
class RunResult:
    """Outcome of one study configuration.

    ``workload`` and ``seed`` record the effective scenario and RNG seed of
    the run (after overrides), so multi-workload study JSON stays
    self-describing after a :meth:`StudyResults.to_json` round-trip even when
    the override dict never mentioned them.
    """

    name: str
    config: Dict[str, Any]
    metrics: Dict[str, float]
    series: Dict[str, List[float]] = field(default_factory=dict)
    workload: str = "heat2d"
    seed: int = 0
    #: fingerprint of the effective run configuration (checkpoint validation)
    digest: str = ""
    #: per-run telemetry counter deltas (empty unless ``repro.telemetry``
    #: metrics were enabled in the executing worker); observability data,
    #: excluded — like the wall-clock timing metrics — from every
    #: bit-identity contract.  Keys starting with ``_`` are worker metadata
    #: (e.g. ``_worker_pid``) and are skipped by telemetry summaries.
    telemetry: Dict[str, float] = field(default_factory=dict)
    #: analysis-only data, outside the digest and empty in records written
    #: before they existed: the executed parameter vectors in submission
    #: order with their :class:`~repro.breed.samplers.ParameterSource` (Fig. 4)
    executed_parameters: List[List[float]] = field(default_factory=list)
    parameter_sources: List[str] = field(default_factory=list)
    #: the Fig. 6 correlation matrix of the per-sample training statistics,
    #: empty when they do not cover the whole run
    sample_correlations: List[List[float]] = field(default_factory=list)

    def metric(self, key: str, default: float = float("nan")) -> float:
        return float(self.metrics.get(key, default))

    def analysis(self, key: str) -> Any:
        """The analysis-only field ``key``; a ``ValueError`` naming the run when empty."""
        value = getattr(self, key)
        if not value:
            raise ValueError(
                f"run {self.name!r} carries no {key}: its record predates the field, or "
                f"(sample_correlations) its statistics miss part of the run"
            )
        return value

    def to_dict(self) -> Dict[str, Any]:
        return _to_jsonable(asdict(self))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild a record from :meth:`to_dict` output (old payloads lack
        ``workload``/``seed`` or the analysis-only fields and take the
        defaults)."""
        return cls(
            name=data["name"],
            config=dict(data.get("config", {})),
            metrics=dict(data.get("metrics", {})),
            series={k: list(v) for k, v in data.get("series", {}).items()},
            workload=data.get("workload", "heat2d"),
            seed=int(data.get("seed", 0)),
            digest=data.get("digest", ""),
            telemetry={k: float(v) for k, v in data.get("telemetry", {}).items()},
            executed_parameters=[list(v) for v in data.get("executed_parameters", [])],
            parameter_sources=list(data.get("parameter_sources", [])),
            sample_correlations=[list(v) for v in data.get("sample_correlations", [])],
        )


#: sign-test p below which a paired comparison settles its claim
SIGNIFICANCE = 0.05


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of ``wins`` against ``losses`` (ties dropped)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def verdict(wins: int, losses: int) -> str:
    """*holds* / *does not hold* when the sign test is significant, else *unresolved*."""
    if sign_test_p(wins, losses) < SIGNIFICANCE:
        return "holds" if wins > losses else "does not hold"
    return "unresolved"


@dataclass
class PairedComparison:
    """One group's runs against the baseline group's runs of one cell, paired by seed.

    A *cell* is every override except the grouping key, ``seed`` and the
    run name; ``better`` says which direction of the metric is the claim
    (``"lower"`` for losses).
    """

    cell: str
    group: str
    baseline: str
    metric: str
    better: str
    seeds: List[int]
    values: List[float]
    baseline_values: List[float]

    @property
    def ratios(self) -> List[float]:
        """Per-seed ratio of the group's value to its paired baseline run's."""
        return [v / b if b else float("nan") for v, b in zip(self.values, self.baseline_values)]

    def _outcomes(self) -> Tuple[int, int]:
        sign = 1.0 if self.better == "lower" else -1.0
        diffs = [sign * (b - v) for v, b in zip(self.values, self.baseline_values)]
        return sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)

    @property
    def wins(self) -> int:
        """Seeds where the group beats its paired baseline run (ties count for neither)."""
        return self._outcomes()[0]

    @property
    def losses(self) -> int:
        return self._outcomes()[1]

    @property
    def p(self) -> float:
        return sign_test_p(*self._outcomes())

    def verdict(self) -> str:
        return verdict(*self._outcomes())

    def text_cells(self) -> List[str]:
        """Median (IQR) of both sides, median ratio, wins, p and verdict, as table text."""
        row = self.to_dict()
        return [
            f"{row['median']:.5g} ({row['iqr']:.2g})",
            f"{row['baseline_median']:.5g} ({row['baseline_iqr']:.2g})",
            f"{row['median_ratio']:.3f}",
            f"{self.wins}/{len(self.seeds)}",
            f"{self.p:.3g}",
            row["verdict"],
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.cell,
            "group": self.group,
            "baseline": self.baseline,
            "metric": self.metric,
            "better": self.better,
            "seeds": list(self.seeds),
            **{
                f"{prefix}{stat}": value
                for prefix, values in (("", self.values), ("baseline_", self.baseline_values))
                for stat, value in _median_iqr(values).items()
            },
            "ratios": self.ratios,
            "median_ratio": float(np.median(self.ratios)),
            "wins": self.wins,
            "losses": self.losses,
            "p": self.p,
            "verdict": self.verdict(),
        }


def _median_iqr(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1)}


@dataclass
class StudyResults:
    """Collection of run results for one study."""

    study: str
    runs: List[RunResult] = field(default_factory=list)

    def add(self, result: RunResult) -> None:
        self.runs.append(result)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.runs)

    def filter(self, **config_values: Any) -> List[RunResult]:
        out = []
        for run in self.runs:
            if all(run.config.get(k) == v for k, v in config_values.items()):
                out.append(run)
        return out

    def best(self, metric: str, minimize: bool = True) -> Optional[RunResult]:
        if not self.runs:
            return None
        key = lambda r: r.metric(metric)  # noqa: E731
        return min(self.runs, key=key) if minimize else max(self.runs, key=key)

    def telemetry_summary(self) -> Dict[str, float]:
        """Merged per-run telemetry counters, accumulated in spec order.

        Each run's :attr:`RunResult.telemetry` holds the counter increments
        its (possibly remote) worker attributed to that run; this sums them
        series-by-series over :attr:`runs` — which ``run_all`` always returns
        in configuration order regardless of backend or completion order, so
        the merge is deterministic.  Keys starting with ``_`` (worker
        metadata such as ``_worker_pid``) are skipped.  Empty when telemetry
        was disabled.
        """
        merged: Dict[str, float] = {}
        for run in self.runs:
            for key, value in run.telemetry.items():
                if key.startswith("_"):
                    continue
                merged[key] = merged.get(key, 0.0) + float(value)
        return merged

    def paired(
        self,
        metric: Union[str, Callable[[RunResult], float]] = "final_validation_loss",
        by: str = "method",
        better: str = "lower",
    ) -> List[PairedComparison]:
        """Compare every group of ``by`` against the baseline group, cell by cell, paired by seed.

        ``metric`` is a metric key or a function of a record.  The baseline
        is the last group in sorted order (``random`` for methods).  Runs
        pair when they share a cell (every other override) and a seed; a run
        without a partner is left out.
        """
        if better not in ("lower", "higher"):
            raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
        value_of = (lambda run: run.metric(metric)) if isinstance(metric, str) else metric
        cells: Dict[str, Dict[str, Dict[int, float]]] = {}
        for run in self.runs:
            if by not in run.config:
                raise ValueError(f"run {run.name!r} has no {by!r} override to group by")
            cell = " ".join(
                f"{k}={v}" for k, v in sorted(run.config.items()) if k not in (by, "seed", "_name")
            )
            cells.setdefault(cell, {}).setdefault(str(run.config[by]), {})[run.seed] = value_of(run)
        comparisons: List[PairedComparison] = []
        for cell, groups in cells.items():
            reference = sorted(groups)[-1]
            for group in sorted(set(groups) - {reference}):
                seeds = sorted(set(groups[group]) & set(groups[reference]))
                if not seeds:
                    continue
                comparisons.append(
                    PairedComparison(
                        cell=cell,
                        group=group,
                        baseline=reference,
                        metric=metric if isinstance(metric, str) else metric.__name__,
                        better=better,
                        seeds=seeds,
                        values=[groups[group][s] for s in seeds],
                        baseline_values=[groups[reference][s] for s in seeds],
                    )
                )
        return comparisons

    # ---------------------------------------------------------------- tables
    def table(self, columns: Sequence[str], metric_columns: Sequence[str]) -> str:
        """Render a plain-text table with config columns and metric columns."""
        header = [*columns, *metric_columns]
        rows: List[List[str]] = [list(header)]
        for run in self.runs:
            row = [str(run.config.get(c, "")) for c in columns]
            row += [f"{run.metric(m):.5g}" for m in metric_columns]
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = []
        for index, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
            if index == 0:
                lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        return "\n".join(lines)

    # ------------------------------------------------------------ persistence
    def save_json(self, path: str | Path) -> Path:
        """Atomically replace ``path``: a failed write leaves the old file."""
        payload = {"study": self.study, "runs": [run.to_dict() for run in self.runs]}
        return atomic_write(path, json.dumps(payload, indent=2))

    @classmethod
    def load_json(cls, path: str | Path) -> "StudyResults":
        payload = json.loads(Path(path).read_text())
        results = cls(study=payload["study"])
        for run in payload["runs"]:
            results.add(RunResult.from_dict(run))
        return results
