"""Cross-workload study: Breed vs Random over every registered physics.

The paper's claim is that Breed steering is *workload-agnostic* — the sampler
only ever sees per-sample losses and a parameter box, never the PDE.  This
study puts the claim under test: the same training budget runs with both
steering methods against every registered workload (four physics families:
heat diffusion, advection–diffusion, viscous Burgers, Fisher–KPP) and
summarises, per workload, the final validation MSE of each method and the
Breed-vs-Random improvement.

Workload switching is nothing but a per-run ``{"workload": name}`` override:
each factory resolves its canonical parameter bounds, surrogate geometry and
CFL-checked discretisation from the shared scale knobs, so the study grid
stays a plain list of string overrides — picklable, checkpointable and
executable on any backend.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.config import OnlineTrainingConfig
from repro.api.registry import workload_names
from repro.experiments.base import base_config, run_study
from repro.workflow.results import StudyResults

__all__ = ["CrossWorkloadResult", "cross_workload_configurations", "run_cross_workload"]

#: steering methods compared on every workload
METHODS: Tuple[str, ...] = ("breed", "random")

#: mean parameter-box width of the paper's heat2d study, the reference the
#: scale presets calibrate their (absolute) Breed proposal width against
_HEAT2D_WIDTH = 400.0


def _scaled_sigma(template: OnlineTrainingConfig, workload: str) -> float:
    """Breed proposal width matched to the workload's parameter box.

    ``BreedConfig.sigma`` is absolute (Kelvin for the heat workloads); a
    σ = 25 proposal is a gentle 6 % nudge on the 400-K heat box but pure
    boundary noise on the O(1) boxes of the transport workloads.  Scaling by
    the mean box width keeps the *relative* proposal identical across
    physics (and exactly the preset value for the heat workloads).
    """
    bounds = replace(template, workload=workload).build_workload().bounds
    return float(template.breed.sigma * np.mean(bounds.widths) / _HEAT2D_WIDTH)


@dataclass
class CrossWorkloadResult:
    """Per-workload Breed/Random validation losses of the cross study."""

    workloads: List[str]
    scale: str
    #: raw study records behind the summary (serializable via ``save_json``)
    study: Optional[StudyResults] = None

    def _methods(self, workload: str) -> List[str]:
        return list(dict.fromkeys(run.config["method"] for run in self.study.filter(workload=workload)))

    def _median(self, workload: str, method: str, metric: str) -> float:
        """``metric``'s median over the seeds of one workload and method."""
        runs = self.study.filter(workload=workload, method=method)
        return statistics.median(run.metric(metric) for run in runs)

    def losses(self, workload: str) -> Dict[str, float]:
        """Final validation MSE per method for one workload (median over seeds)."""
        if self.study is None:
            return {}
        return {m: self._median(workload, m, "final_validation_loss") for m in self._methods(workload)}

    def breed_improvement(self, workload: str) -> float:
        """Relative validation-MSE improvement of Breed over Random.

        Positive values mean Breed ended with the lower validation loss;
        ``nan`` when either method's run is missing.
        """
        losses = self.losses(workload)
        if "breed" not in losses or "random" not in losses or losses["random"] == 0:
            return float("nan")
        return (losses["random"] - losses["breed"]) / losses["random"]

    def summary_rows(self) -> List[Tuple[str, str, float, float, float]]:
        """``(workload, method, train MSE, validation MSE, overfit gap)`` rows, medians over seeds."""
        if self.study is None:
            return []
        return [
            (workload, method, *(
                self._median(workload, method, metric)
                for metric in ("final_train_loss", "final_validation_loss", "overfit_gap")
            ))
            for workload in self.workloads
            for method in self._methods(workload)
        ]

    def improvement_rows(self) -> List[Tuple[str, float]]:
        """``(workload, breed improvement)`` rows for the summary table."""
        return [(w, self.breed_improvement(w)) for w in self.workloads]


def cross_workload_configurations(
    workloads: Sequence[str],
    methods: Sequence[str] = METHODS,
    sigmas: Optional[Dict[str, float]] = None,
) -> List[Dict[str, object]]:
    """Expand the workload × method grid into study-override dicts.

    ``sigmas`` optionally carries a per-workload Breed proposal width (see
    :func:`_scaled_sigma`); the override rides on every run of the workload
    so both methods share one configuration fingerprint scheme.
    """
    configurations: List[Dict[str, object]] = []
    for workload in workloads:
        for method in methods:
            overrides: Dict[str, object] = {
                "_name": f"{workload}-{method}",
                "workload": workload,
                "method": method,
            }
            if sigmas is not None and workload in sigmas:
                overrides["sigma"] = sigmas[workload]
            configurations.append(overrides)
    return configurations


def run_cross_workload(
    scale: str = "smoke",
    workloads: Optional[Sequence[str]] = None,
    methods: Sequence[str] = METHODS,
    seed: int = 0,
    architecture: str = "mlp",
    **engine: Any,
) -> CrossWorkloadResult:
    """Run the Breed-vs-Random comparison across workloads.

    Parameters
    ----------
    scale:
        Experiment scale preset (see :data:`repro.experiments.base.SCALES`).
    workloads:
        Workload registry keys to include; defaults to *every* registered
        workload (built-ins plus any user registrations).
    methods:
        Steering-method registry keys compared on each workload.
    architecture:
        Surrogate-architecture registry key applied to every run.
    engine:
        Study-engine knobs of :func:`run_study` (``seeds``, ``backend``,
        ``max_workers``, ``checkpoint``, ``resume``, ``checkpoint_every``).
        With several seeds, :meth:`CrossWorkloadResult.losses` reports the
        last seed's runs; the study keeps every run.
    """
    names = list(workloads) if workloads is not None else workload_names()
    template = base_config(scale, method="breed", seed=seed, architecture=architecture)
    sigmas = {name: _scaled_sigma(template, name) for name in names}
    study = run_study(
        template, "cross", cross_workload_configurations(names, methods, sigmas=sigmas), **engine
    )
    return CrossWorkloadResult(workloads=names, scale=scale, study=study)
