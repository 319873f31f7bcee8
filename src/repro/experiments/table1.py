"""Table 1 of the paper: fixed hyper-parameters of each study.

The table records, per study, which hyper-parameters stay fixed while one is
varied (marked ``*`` in the paper).  Reproducing it is a configuration
exercise rather than a computation, but encoding it here keeps the experiment
harness and the paper's setup in one auditable place — every other experiment
module derives its fixed values from these rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["StudyConfiguration", "TABLE1", "render_table1"]


@dataclass(frozen=True)
class StudyConfiguration:
    """One row of Table 1.  ``None`` marks the varied (``*``) entries."""

    study: str
    description: str
    sigma: Optional[float]
    period: Optional[int]
    window: Optional[int]
    r_start: Optional[float]
    r_end: Optional[float]
    r_breakpoint: Optional[int]
    hidden_size: Optional[int]
    n_layers: Optional[int]

    def as_row(self) -> List[str]:
        def fmt(value: Optional[float]) -> str:
            return "*" if value is None else f"{value:g}"

        return [
            self.study,
            fmt(self.sigma),
            fmt(self.period),
            fmt(self.window),
            fmt(self.r_start),
            fmt(self.r_end),
            fmt(self.r_breakpoint),
            fmt(self.hidden_size),
            fmt(self.n_layers),
        ]


#: the three study rows of Table 1
TABLE1: Dict[str, StudyConfiguration] = {
    "study1": StudyConfiguration(
        study="Study (1)",
        description="model-architecture study (H, L varied)",
        sigma=10.0,
        period=300,
        window=200,
        r_start=0.5,
        r_end=0.7,
        r_breakpoint=3,
        hidden_size=None,
        n_layers=None,
    ),
    "study2": StudyConfiguration(
        study="Study (2)",
        description="sampling hyper-parameters study (sigma / period / window varied)",
        sigma=5.0,
        period=200,
        window=200,
        r_start=0.5,
        r_end=0.9,
        r_breakpoint=3,
        hidden_size=16,
        n_layers=1,
    ),
    "study3": StudyConfiguration(
        study="Study (3)",
        description="mixing-ratio study (r_s / r_e / r_c varied)",
        sigma=5.0,
        period=200,
        window=200,
        r_start=0.1,
        r_end=1.0,
        r_breakpoint=5,
        hidden_size=16,
        n_layers=1,
    ),
}

#: the value grids attached to each varied hyper-parameter (Section 4.1)
VARIED_VALUES: Dict[str, Dict[str, list]] = {
    "study1": {"hidden_size": [16, 32, 64], "n_layers": [1, 2, 3]},
    "study2": {"window": [50, 600, 1000], "period": [10, 50, 100, 300, 500], "sigma": [1.0, 5.0, 10.0, 25.0]},
    "study3": {"r_start": [0.1, 0.5, 0.8, 1.0], "r_end": [0.7, 0.9], "r_breakpoint": [2, 4]},
}


def render_table1() -> str:
    """Plain-text rendering of Table 1 (``repro table1``)."""
    headers = ["study", "sigma", "P", "N", "r_s", "r_e", "r_c", "H", "L"]
    widths = [max(len(headers[i]), *(len(row.as_row()[i]) for row in TABLE1.values())) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in TABLE1.values():
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row.as_row(), widths)))
    return "\n".join(lines)
