"""Figure 6: correlation matrix of the per-sample training statistics.

One Breed run is executed with per-sample statistics recording enabled; the
correlation matrix over (NN iteration, parameter index, time step, per-sample
loss, uniform indicator, batch loss, loss deviation) is then computed.

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
from typing import Dict

from repro.analysis.correlation import CorrelationMatrix, correlation_matrix
from repro.experiments.base import base_config
from repro.api.session import OnlineTrainingResult
from repro.workflow.study import StudyRunner

__all__ = ["Fig6Result", "run_fig6"]


@dataclass
class Fig6Result:
    matrix: CorrelationMatrix
    run: OnlineTrainingResult
    scale: str

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


def run_fig6(scale: str = "smoke", seed: int = 0, workload: str = "heat2d") -> Fig6Result:
    """Run one Breed experiment with statistics recording and build the matrix.

    The correlation matrix needs the full per-sample statistics history, so
    the run goes through the study engine's serial backend, which keeps the
    complete :class:`OnlineTrainingResult` in-process.
    """
    config = base_config(scale, method="breed", seed=seed, workload=workload, record_sample_statistics=True)
    runner = StudyRunner(base_config=config, study_name="fig6")
    runner.run_all([{"_name": "breed"}], name_key="_name")
    run = runner.full_results["fig6:breed"]
    matrix = correlation_matrix(run.history.sample_statistics)
    return Fig6Result(matrix=matrix, run=run, scale=scale)
