"""Plain-text rendering of the reproduced figures and tables.

The CLI and the examples print the paper's tables and figures as *text*:
fixed-width tables, series of (iteration, loss) points and histogram rows.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

from repro.analysis.curves import LossCurve, downsample_series
from repro.analysis.deviation import DeviationHistogram

__all__ = [
    "format_table",
    "render_loss_curves",
    "render_histograms",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Simple fixed-width text table."""
    str_rows: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        str_rows.append([f"{v:.5g}" if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[i]) for r in str_rows) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(str_rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_loss_curves(curves: Mapping[str, LossCurve], n_points: int = 8) -> str:
    """Render a set of loss curves as downsampled (iteration, loss) series."""
    blocks: List[str] = []
    for label, curve in curves.items():
        blocks.append(f"== {label} ==")
        rows = []
        for it, loss in downsample_series(curve.train_iterations, curve.smoothed_train_losses, n_points):
            rows.append(("train", int(it), loss))
        for it, loss in downsample_series(curve.validation_iterations, curve.validation_losses, n_points):
            rows.append(("validation", int(it), loss))
        blocks.append(format_table(["series", "iteration", "mse"], rows))
        blocks.append(
            f"final: train={curve.final_train_loss:.5g} "
            f"validation={curve.final_validation_loss:.5g} "
            f"gap={curve.overfit_gap:+.5g}"
        )
        blocks.append("")
    return "\n".join(blocks)


def render_histograms(histograms: Mapping[str, DeviationHistogram], bar_width: int = 40) -> str:
    """ASCII rendering of deviation histograms with their means."""
    blocks: List[str] = []
    max_count = max((int(h.counts.max()) if h.counts.size else 0) for h in histograms.values())
    max_count = max(max_count, 1)
    for label, hist in histograms.items():
        blocks.append(f"== {label} (n={hist.n}, mean deviation={hist.mean:.2f}) ==")
        for lo, hi, count in hist.as_rows():
            bar = "#" * int(round(bar_width * count / max_count))
            blocks.append(f"[{lo:7.2f}, {hi:7.2f})  {count:5d}  {bar}")
        blocks.append("")
    return "\n".join(blocks)
