"""Study result records and persistence.

Study runners return :class:`RunResult` records (one per executed
configuration) grouped into a :class:`StudyResults` container that can render
plain-text tables (``examples/hyperparameter_study.py`` prints one) and round-trip to JSON for
post-hoc analysis.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.utils.durable import atomic_write

__all__ = ["RunResult", "StudyResults"]


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

    def metric(self, key: str, default: float = float("nan")) -> float:
        return float(self.metrics.get(key, default))

    def to_dict(self) -> Dict[str, Any]:
        return _to_jsonable(asdict(self))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild a record from :meth:`to_dict` output (old payloads lack
        ``workload``/``seed`` and take the defaults)."""
        return cls(
            name=data["name"],
            config=dict(data.get("config", {})),
            metrics=dict(data.get("metrics", {})),
            series={k: list(v) for k, v in data.get("series", {}).items()},
            workload=data.get("workload", "heat2d"),
            seed=int(data.get("seed", 0)),
            digest=data.get("digest", ""),
            telemetry={k: float(v) for k, v in data.get("telemetry", {}).items()},
        )


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
