"""Figure 3b: comparative study over the Breed hyper-parameters.

Six sub-plots, each varying one hyper-parameter while the others stay fixed at
the Table-1 values (studies 2 and 3): window ``N``, period ``P``, width ``σ``,
and the mixing triplet ``(r_s, r_e, r_c)``.  Each configuration is one Breed
run whose train/validation curves are reported with the varied value as the
legend entry.

The one-factor-at-a-time grid is executed through
:func:`~repro.experiments.base.run_study` — every configuration is an
independent run, so ``backend="process"`` parallelises the whole figure and
``resume=`` restarts a killed study where it left off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.curves import LossCurve, curve_from_series
from repro.experiments.base import base_config, run_study
from repro.workflow.results import StudyResults

__all__ = [
    "PAPER_FACTORS",
    "SMOKE_FACTORS",
    "Fig3bPanel",
    "Fig3bResult",
    "fig3b_configurations",
    "run_fig3b",
]

#: the paper's per-hyper-parameter value grids (Section 4.1)
PAPER_FACTORS: Dict[str, Sequence[float]] = {
    "window": [50, 600, 1000],
    "period": [10, 50, 100, 300, 500],
    "sigma": [1.0, 5.0, 10.0, 25.0],
    "r_start": [0.1, 0.5, 0.8, 1.0],
    "r_end": [0.7, 0.9],
    "r_breakpoint": [2, 4],
}

#: reduced grids keeping the extreme values, used at the "smoke" scale
SMOKE_FACTORS: Dict[str, Sequence[float]] = {
    "window": [20, 120],
    "period": [10, 60],
    "sigma": [1.0, 25.0],
    "r_start": [0.1, 1.0],
    "r_end": [0.7, 0.9],
    "r_breakpoint": [2, 4],
}

#: hyper-parameters that take integer values
_INTEGER_FACTORS = frozenset({"window", "period", "r_breakpoint"})


@dataclass
class Fig3bPanel:
    """One sub-plot: a varied hyper-parameter and one curve per value."""

    factor: str
    curves: Dict[float, LossCurve] = field(default_factory=dict)

    def summary_rows(self) -> List[Tuple[str, float, float, float, float]]:
        rows = []
        for value, curve in self.curves.items():
            rows.append(
                (self.factor, value, curve.final_train_loss, curve.final_validation_loss, curve.overfit_gap)
            )
        return rows


@dataclass
class Fig3bResult:
    panels: List[Fig3bPanel]
    scale: str
    #: raw study records behind the panels (serializable via ``save_json``)
    study: Optional[StudyResults] = None

    def panel(self, factor: str) -> Fig3bPanel:
        for panel in self.panels:
            if panel.factor == factor:
                return panel
        raise KeyError(f"no panel for factor {factor!r}")

    def summary_rows(self) -> List[Tuple[str, float, float, float, float]]:
        rows: List[Tuple[str, float, float, float, float]] = []
        for panel in self.panels:
            rows.extend(panel.summary_rows())
        return rows


def fig3b_configurations(
    factors: Mapping[str, Sequence[float]], seed: int = 0
) -> List[Dict[str, Any]]:
    """Expand the one-factor-at-a-time grids into study-override dicts.

    The paper fixes H=16, L=1 for these studies (Table 1, studies 2-3).
    """
    configurations: List[Dict[str, Any]] = []
    for factor, values in factors.items():
        for value in values:
            configurations.append(
                {
                    "_factor": factor,
                    "_value": value,
                    "hidden_size": 16,
                    "n_hidden_layers": 1,
                    factor: int(value) if factor in _INTEGER_FACTORS else float(value),
                    "seed": seed,
                }
            )
    return configurations


def run_fig3b(
    scale: str = "smoke",
    factors: Mapping[str, Sequence[float]] | None = None,
    seed: int = 0,
    workload: str = "heat2d",
    architecture: str = "mlp",
    **engine: Any,
) -> Fig3bResult:
    """Run the hyper-parameter study (one factor at a time).

    ``workload`` runs the whole grid against another registered scenario and
    ``architecture`` swaps the surrogate body (registry key).  ``engine``
    holds the study-engine knobs of :func:`run_study` (``seeds``,
    ``backend``, ``max_workers``, ``checkpoint``, ``resume``,
    ``checkpoint_every``).
    """
    if factors is None:
        factors = SMOKE_FACTORS if scale == "smoke" else PAPER_FACTORS
    template = base_config(
        scale, method="breed", seed=seed, workload=workload, architecture=architecture
    )
    configurations = fig3b_configurations(factors, seed=seed)
    study = run_study(template, "fig3b", configurations, **engine)

    panels: List[Fig3bPanel] = []
    for factor in factors:
        panel = Fig3bPanel(factor=factor)
        for run in study.filter(_factor=factor):
            value = float(run.config["_value"])
            panel.curves[value] = curve_from_series(run.series, label=f"{factor}={run.config['_value']}")
        panels.append(panel)
    return Fig3bResult(panels=panels, scale=scale, study=study)
