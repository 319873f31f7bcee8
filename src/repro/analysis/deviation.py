"""Input-parameter deviation analysis (Figure 4 of the paper).

The paper's "central insight" is that Breed shifts the distribution of chosen
input parameters towards vectors whose five temperatures are more *dissimilar*
(more internal spread ⇒ more dynamic trajectories ⇒ harder to learn).  The
statistic plotted in Figure 4 is a per-vector deviation of the components
``T0..T4``; we use the (population) standard deviation of the five
temperatures, whose values for uniform draws on ``[100, 500]^5`` fall in the
20–180 range shown on the paper's x-axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.breed.samplers import ParameterSource

__all__ = [
    "parameter_vector_deviation",
    "DeviationHistogram",
    "histogram_by_source",
    "compare_runs",
]


def parameter_vector_deviation(parameters: np.ndarray) -> np.ndarray:
    """Per-vector spread of the parameter components.

    Accepts a single vector or a batch ``(n, d)``; returns a scalar or ``(n,)``
    array of standard deviations across the ``d`` components.
    """
    arr = np.asarray(parameters, dtype=np.float64)
    if arr.ndim == 1:
        return np.asarray(arr.std())
    if arr.ndim != 2:
        raise ValueError("parameters must be a vector or a (n, d) batch")
    return arr.std(axis=1)


@dataclass
class DeviationHistogram:
    """Histogram of per-vector deviations for one group of parameter vectors."""

    label: str
    deviations: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.deviations.mean()) if self.deviations.size else float("nan")

    @property
    def n(self) -> int:
        return int(self.deviations.size)

    def as_rows(self) -> List[Tuple[float, float, int]]:
        """(bin start, bin end, count) rows for text rendering."""
        return [
            (float(self.bin_edges[i]), float(self.bin_edges[i + 1]), int(self.counts[i]))
            for i in range(self.counts.size)
        ]


def _build_histogram(label: str, deviations: np.ndarray, bin_edges: np.ndarray) -> DeviationHistogram:
    counts, _ = np.histogram(deviations, bins=bin_edges)
    return DeviationHistogram(label=label, deviations=deviations, bin_edges=bin_edges, counts=counts)


def _default_bins(all_deviations: Sequence[np.ndarray], n_bins: int) -> np.ndarray:
    stacked = np.concatenate([np.atleast_1d(d) for d in all_deviations if np.size(d)]) if all_deviations else np.array([0.0, 1.0])
    lo = float(stacked.min()) if stacked.size else 0.0
    hi = float(stacked.max()) if stacked.size else 1.0
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n_bins + 1)


def histogram_by_source(
    parameters: np.ndarray,
    sources: Sequence[str],
    n_bins: int = 16,
) -> Dict[str, DeviationHistogram]:
    """Figure 4a: compare uniform-sourced vs proposal-sourced vectors of one run.

    Vectors whose parameters came from a uniform draw (initial budget or the
    exploration mixture) go into the ``"Uniform"`` histogram; vectors from the
    AMIS proposal into ``"Proposal"``.
    """
    params = np.atleast_2d(np.asarray(parameters, dtype=np.float64))
    if params.shape[0] != len(sources):
        raise ValueError("parameters and sources must have the same length")
    deviations = parameter_vector_deviation(params)
    uniform_mask = np.array([s in ParameterSource.UNIFORM for s in sources])
    uniform_dev = deviations[uniform_mask]
    proposal_dev = deviations[~uniform_mask]
    bins = _default_bins([uniform_dev, proposal_dev], n_bins)
    return {
        "Uniform": _build_histogram("Uniform", uniform_dev, bins),
        "Proposal": _build_histogram("Proposal", proposal_dev, bins),
    }


def compare_runs(
    run_parameters: Dict[str, np.ndarray],
    n_bins: int = 16,
) -> Dict[str, DeviationHistogram]:
    """Figure 4b: compare the executed-parameter deviation of whole runs.

    ``run_parameters`` maps a label (e.g. ``"Random"``, ``"Breed"``) to the
    ``(S, d)`` array of executed parameter vectors of that run.
    """
    deviations = {
        label: parameter_vector_deviation(np.atleast_2d(params))
        for label, params in run_parameters.items()
    }
    bins = _default_bins(list(deviations.values()), n_bins)
    return {label: _build_histogram(label, dev, bins) for label, dev in deviations.items()}
