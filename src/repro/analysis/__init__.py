"""Analysis of training runs: loss curves, deviation histograms, correlations."""

from repro.analysis.correlation import (
    CORRELATION_COLUMNS,
    CorrelationMatrix,
    correlation_matrix,
    pearson_correlation,
)
from repro.analysis.curves import (
    PAPER_SMOOTHING_WINDOW,
    LossCurve,
    curve_from_history,
    downsample_series,
)
from repro.analysis.deviation import (
    DeviationHistogram,
    compare_runs,
    histogram_by_source,
    parameter_vector_deviation,
)
from repro.analysis.report import (
    format_table,
    render_histograms,
    render_loss_curves,
)

__all__ = [
    "CORRELATION_COLUMNS",
    "CorrelationMatrix",
    "correlation_matrix",
    "pearson_correlation",
    "PAPER_SMOOTHING_WINDOW",
    "LossCurve",
    "curve_from_history",
    "downsample_series",
    "DeviationHistogram",
    "compare_runs",
    "histogram_by_source",
    "parameter_vector_deviation",
    "format_table",
    "render_histograms",
    "render_loss_curves",
]
