"""Figure 3a: comparative study of model architectures, Breed vs Random.

The paper trains surrogates of every ``(H, L)`` combination in
``{16, 32, 64} × {1, 2, 3}`` with both steering methods and plots training and
validation MSE against the NN iteration.  The qualitative result: as model
expressivity grows, Random runs overfit (train loss drops below validation,
most visibly for ``H=16, L=3``) while Breed's two curves stay close.

This module regenerates the same grid of runs (at a configurable scale) and
summarises, per cell, the final train/validation losses and the overfit gap.
The grid is executed through :func:`~repro.experiments.base.run_study`, so it
can fan out over a process pool (``backend="process"``), checkpoint/resume
through JSONL files and repeat over a seed axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.curves import LossCurve, curve_from_series
from repro.experiments.base import base_config, run_study
from repro.workflow.results import StudyResults

__all__ = ["Fig3aCell", "Fig3aResult", "fig3a_configurations", "run_fig3a"]

#: the paper's architecture grid
PAPER_HIDDEN_SIZES: Tuple[int, ...] = (16, 32, 64)
PAPER_LAYER_COUNTS: Tuple[int, ...] = (1, 2, 3)

#: method registry key → figure legend label
_METHOD_LABELS = {"breed": "Breed", "random": "Random"}


@dataclass
class Fig3aCell:
    """One sub-plot of Figure 3a: a (H, L) cell with both methods' curves."""

    hidden_size: int
    n_layers: int
    curves: Dict[str, LossCurve] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"H={self.hidden_size}, L={self.n_layers}"

    def overfit_gap(self, method: str) -> float:
        return self.curves[method].overfit_gap if method in self.curves else float("nan")

    def summary_rows(self) -> List[Tuple[str, str, float, float, float]]:
        rows = []
        for method, curve in self.curves.items():
            rows.append(
                (
                    self.label,
                    method,
                    curve.final_train_loss,
                    curve.final_validation_loss,
                    curve.overfit_gap,
                )
            )
        return rows


@dataclass
class Fig3aResult:
    """All cells of the architecture study."""

    cells: List[Fig3aCell]
    scale: str
    #: raw study records behind the cells (serializable via ``save_json``)
    study: Optional[StudyResults] = None

    def cell(self, hidden_size: int, n_layers: int) -> Fig3aCell:
        for cell in self.cells:
            if cell.hidden_size == hidden_size and cell.n_layers == n_layers:
                return cell
        raise KeyError(f"no cell for H={hidden_size}, L={n_layers}")

    def summary_rows(self) -> List[Tuple[str, str, float, float, float]]:
        rows: List[Tuple[str, str, float, float, float]] = []
        for cell in self.cells:
            rows.extend(cell.summary_rows())
        return rows


def fig3a_configurations(
    hidden_sizes: Sequence[int] = PAPER_HIDDEN_SIZES,
    layer_counts: Sequence[int] = PAPER_LAYER_COUNTS,
    methods: Sequence[str] = ("breed", "random"),
) -> List[Dict[str, Any]]:
    """Expand the architecture grid into study-override dicts."""
    configurations: List[Dict[str, Any]] = []
    for hidden in hidden_sizes:
        for layers in layer_counts:
            for method in methods:
                configurations.append(
                    {
                        "_name": f"H{hidden}-L{layers}-{method}",
                        "hidden_size": int(hidden),
                        "n_hidden_layers": int(layers),
                        "method": method,
                    }
                )
    return configurations


def run_fig3a(
    scale: str = "smoke",
    hidden_sizes: Sequence[int] = PAPER_HIDDEN_SIZES,
    layer_counts: Sequence[int] = PAPER_LAYER_COUNTS,
    methods: Sequence[str] = ("breed", "random"),
    seed: int = 0,
    workload: str = "heat2d",
    architecture: str = "mlp",
    **engine: Any,
) -> Fig3aResult:
    """Run the architecture study and return its loss curves.

    ``workload`` runs the whole grid against another registered scenario and
    ``architecture`` swaps the surrogate body (registry key).  ``engine``
    holds the study-engine knobs of :func:`run_study` (``seeds``,
    ``backend``, ``max_workers``, ``checkpoint``, ``resume``,
    ``checkpoint_every``).  With several seeds each cell's curves are the
    last seed's; the study keeps every run.
    """
    template = base_config(
        scale, method="breed", seed=seed, workload=workload, architecture=architecture
    )
    configurations = fig3a_configurations(hidden_sizes, layer_counts, methods)
    study = run_study(template, "fig3a", configurations, **engine)

    cells: List[Fig3aCell] = []
    for hidden in hidden_sizes:
        for layers in layer_counts:
            cell = Fig3aCell(hidden_size=hidden, n_layers=layers)
            for run in study.filter(hidden_size=hidden, n_hidden_layers=layers):
                method = run.config["method"]
                label = _METHOD_LABELS.get(method, method)
                cell.curves[label] = curve_from_series(run.series, label=f"{cell.label} {label}")
            cells.append(cell)
    return Fig3aResult(cells=cells, scale=scale, study=study)
