"""Figure 6: correlation matrix of the per-sample training statistics.

One Breed run is executed (every run records the per-sample statistics); the
correlation matrix over (NN iteration, parameter index, time step, per-sample
loss, uniform indicator, batch loss, loss deviation) is computed where the run
executes and read from its record.

Qualitative expectations from Section 4.2 of the paper:

* the proposed deviation metric has ~zero correlation with the NN iteration
  (paper: −0.02) — it is comparable across training stages,
* it correlates positively with the per-sample loss (paper: +0.27) — it is a
  usable, if partial, proxy for the per-sample loss,
* raw batch loss and per-sample loss *do* correlate with the iteration
  (paper: −0.40/−0.31 — losses decrease as training progresses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.analysis.correlation import CORRELATION_COLUMNS, CorrelationMatrix
from repro.experiments.base import base_config, run_study
from repro.workflow.results import StudyResults

__all__ = ["Fig6Result", "run_fig6"]


@dataclass
class Fig6Result:
    matrix: CorrelationMatrix
    scale: str
    study: StudyResults

    @classmethod
    def from_study(cls, study: StudyResults, scale: str = "") -> "Fig6Result":
        """The mean of the runs' recorded correlation matrices (one run: its own)."""
        matrix = np.mean([run.analysis("sample_correlations") for run in study], axis=0)
        return cls(CorrelationMatrix(columns=CORRELATION_COLUMNS, matrix=matrix), scale, study)

    def key_findings(self) -> Dict[str, float]:
        return self.matrix.key_findings()

    def checks(self) -> Dict[str, bool]:
        """Shape checks mirroring the paper's claims (loose thresholds)."""
        findings = self.key_findings()
        return {
            # |corr(Q, iteration)| should be small compared to corr(loss, iteration).
            "deviation_weakly_coupled_to_iteration": abs(findings["deviation_vs_iteration"])
            <= max(0.25, abs(findings["sample_loss_vs_iteration"])),
            "deviation_positively_tracks_sample_loss": findings["deviation_vs_sample_loss"] > 0.0,
            "losses_decrease_with_iteration": findings["batch_loss_vs_iteration"] < 0.0,
        }


def run_fig6(
    scale: str = "smoke", seed: int = 0, workload: str = "heat2d", architecture: str = "mlp", **engine: Any
) -> Fig6Result:
    """Run one Breed experiment and read its statistics' matrix (``engine``: :func:`run_study`'s knobs)."""
    config = base_config(scale, seed=seed, workload=workload, architecture=architecture)
    study = run_study(config, "fig6", [{"_name": "breed"}], **engine)
    return Fig6Result.from_study(study, scale=scale)
