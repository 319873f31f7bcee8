"""Experiment harness: one module per paper table/figure.

=============  =======================================================
Module         Paper artefact
=============  =======================================================
``table1``     Table 1 — fixed hyper-parameters per study
``fig3a``      Figure 3a — architecture study, Breed vs Random
``fig3b``      Figure 3b — Breed hyper-parameter study
``fig4``       Figure 4  — input-parameter deviation histograms
``fig6``       Figure 6  — training-statistics correlation matrix
``overhead``   Section 6 claim — steering overhead vs training time
=============  =======================================================

``cross_workload`` goes beyond the paper: it re-runs the Breed-vs-Random
comparison on every registered workload (heat, advection–diffusion, Burgers,
Fisher–KPP) to test that the steering loop is workload-agnostic.
"""

from repro.experiments.base import (
    SCALES,
    ExperimentScale,
    base_config,
    scaled_breed_config,
    shared_study_inputs,
)
from repro.experiments.fig3a import Fig3aCell, Fig3aResult, fig3a_configurations, run_fig3a
from repro.experiments.fig3b import (
    PAPER_FACTORS,
    SMOKE_FACTORS,
    Fig3bPanel,
    Fig3bResult,
    fig3b_configurations,
    run_fig3b,
)
from repro.experiments.cross_workload import (
    CrossWorkloadResult,
    cross_workload_configurations,
    run_cross_workload,
)
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.overhead import OverheadResult, run_overhead
from repro.experiments.table1 import TABLE1, StudyConfiguration, render_table1

__all__ = [
    "SCALES",
    "ExperimentScale",
    "base_config",
    "scaled_breed_config",
    "shared_study_inputs",
    "Fig3aCell",
    "Fig3aResult",
    "fig3a_configurations",
    "run_fig3a",
    "PAPER_FACTORS",
    "SMOKE_FACTORS",
    "Fig3bPanel",
    "Fig3bResult",
    "fig3b_configurations",
    "run_fig3b",
    "CrossWorkloadResult",
    "cross_workload_configurations",
    "run_cross_workload",
    "Fig4Result",
    "run_fig4",
    "Fig6Result",
    "run_fig6",
    "OverheadResult",
    "run_overhead",
    "TABLE1",
    "StudyConfiguration",
    "render_table1",
]
