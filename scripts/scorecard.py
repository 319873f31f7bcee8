#!/usr/bin/env python
"""Run scorecard stages 0 and 1 and write their numbers to ``docs/results/scorecard/``.

* stage 0 — ``cross`` at ``small``: Breed vs Random on every registered
  workload, seeds 0–9;
* stage 1 — ``fig3a`` at ``paper``: H=16, L ∈ {1, 3}, both methods, seeds 0–9.

Both stages run through the ``repro`` CLI with ``--checkpoint-every``, so a
killed invocation of this script resumes where it stopped (``--restore``) when
run again; a finished stage is only re-read.  Findings 2 (Fig. 4 deviation
shift) and 4 (Section 6 steering overhead) are computed from stage 1's run
records by the fig4 and overhead analyses; nothing is re-run for them::

    PYTHONPATH=src python scripts/scorecard.py            # ≈ 5 + 30 min on 2 cores

Written, all metrics and no arrays:

* ``stage<k>_runs.json`` — every run's final metrics (wall-clock ones
  excepted) with its configuration digest;
* ``stage<k>_compare_<metric>.json`` — ``repro compare --json`` output;
* ``findings.json`` — findings 2 and 4, with the steering shares measured in
  wall-clock time (they regenerate within timing noise only).

It also prints the rows of the "Results" table in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.deviation import parameter_vector_deviation  # noqa: E402
from repro.experiments.fig4 import Fig4Result  # noqa: E402
from repro.experiments.overhead import NEGLIGIBLE_SHARE, OverheadResult  # noqa: E402
from repro.workflow.executor import TIMING_METRICS  # noqa: E402
from repro.workflow.results import PairedComparison, RunResult, StudyResults, sign_test_p, verdict  # noqa: E402

SEEDS = "0-9"

#: name → (experiment, scale, extra CLI flags, session-snapshot period, compared metrics)
STAGES = {
    "stage0": ("cross", "small", [], 250, ["final_validation_loss"]),
    "stage1": ("fig3a", "paper", ["--hidden", "16", "--layers", "1", "--layers", "3"], 2500,
               ["final_validation_loss", "overfit_gap"]),
}


#: one BLAS thread per process, as in benchmarks/e2e: the two study workers fill the cores
BLAS_ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def repro(*args: str) -> str:
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **BLAS_ONE_THREAD, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args], check=True, env=env, stdout=subprocess.PIPE, text=True
    ).stdout


def run_stage(name: str, out: Path, jobs: int) -> StudyResults:
    experiment, scale, flags, every, _ = STAGES[name]
    stage_out = out / name
    runs = stage_out / f"{experiment}_{scale}.runs.jsonl"
    restore = ["--restore"] if runs.exists() else []
    print(f"{name}: repro {experiment} --scale {scale} --seeds {SEEDS} {' '.join(restore)}", flush=True)
    repro(experiment, "--scale", scale, *flags, "--seeds", SEEDS, "--jobs", str(jobs),
          "--checkpoint-every", str(every), "--out", str(stage_out), *restore)
    # every run is in the JSONL now: its mid-run snapshots are dead weight
    shutil.rmtree(stage_out / f"{runs.name}.snapshots", ignore_errors=True)
    return StudyResults.load_json(stage_out / f"{experiment}_{scale}.json")


def run_rows(study: StudyResults) -> List[Dict[str, object]]:
    return [
        {
            "name": run.name,
            "digest": run.digest,
            "workload": run.workload,
            "seed": run.seed,
            "config": run.config,
            "metrics": {k: v for k, v in run.metrics.items() if k not in TIMING_METRICS},
        }
        for run in study
    ]


def mean_deviation(run: RunResult) -> float:
    """Mean deviation of one run's executed parameter vectors (the Fig. 4 statistic)."""
    return float(parameter_vector_deviation(run.analysis("executed_parameters")).mean())


def overhead_finding(study: StudyResults) -> Dict[str, object]:
    """Finding 4: each Breed run's steering share of its wall time, sign-tested against 5 %."""
    overhead = OverheadResult.from_study(study)
    shares = [overhead.steering_share(run) for run in study.filter(method="breed")]
    under = sum(share < NEGLIGIBLE_SHARE for share in shares)
    return {
        "threshold_share": NEGLIGIBLE_SHARE,
        "breed_steering_shares": shares,
        "runs_under_threshold": under,
        "runs": len(shares),
        "p": sign_test_p(under, len(shares) - under),
        "verdict": verdict(under, len(shares) - under),
        "summary_medians": overhead.summary(),
    }


def fmt(c: PairedComparison) -> str:
    """``ours`` and ``verdict`` cells of a Results row, from the ``repro compare`` table's text."""
    return "{} vs {}; {}; {}; p = {} | {}".format(*c.text_cells())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--jobs", type=int, default=2, help="study workers (default: 2)")
    parser.add_argument("--out", default=str(REPO_ROOT / "results" / "scorecard"),
                        help="run directory: checkpoints and study JSON (default: results/scorecard)")
    parser.add_argument("--docs", default=str(REPO_ROOT / "docs" / "results" / "scorecard"),
                        help="where the committed numbers go (default: docs/results/scorecard)")
    args = parser.parse_args()
    out, docs = Path(args.out), Path(args.docs)
    docs.mkdir(parents=True, exist_ok=True)

    studies = {name: run_stage(name, out, args.jobs) for name in STAGES}
    comparisons: Dict[str, Dict[str, List[PairedComparison]]] = {}
    for name, study in studies.items():
        experiment, scale, _, _, metrics = STAGES[name]
        (docs / f"{name}_runs.json").write_text(json.dumps(run_rows(study), indent=2) + "\n")
        comparisons[name] = {}
        for metric in metrics:
            text = repro("compare", str(out / name / f"{experiment}_{scale}.json"), "--by", "method",
                         "--metric", metric, "--json")
            (docs / f"{name}_compare_{metric}.json").write_text(text)
            comparisons[name][metric] = study.paired(metric)

    stage1 = studies["stage1"]
    deviation = stage1.paired(mean_deviation, better="higher")
    findings = {
        "finding2_fig4": {
            "pooled": Fig4Result.from_study(stage1).summary(),
            "paired_mean_deviation": [c.to_dict() for c in deviation],
        },
        "finding3_fig6": "not run: read from the confirmatory and stage-2 Breed runs "
                         "(stage 1's records predate the Fig. 6 columns)",
        "finding4_overhead": overhead_finding(stage1),
    }
    (docs / "findings.json").write_text(json.dumps(findings, indent=2) + "\n")

    print("\nResults rows (EXPERIMENTS.md):")
    for metric, rows in comparisons["stage1"].items():
        for c in rows:
            print(f"| 1 | stage 1, {c.cell}, {metric} | {fmt(c)} |")
    for c in deviation:
        print(f"| 2 | stage 1, {c.cell}, mean deviation (higher) | {fmt(c)} |")
    f4 = findings["finding4_overhead"]
    print(f"| 4 | stage 1 Breed runs, steering share < 5 % | {f4['runs_under_threshold']}/{f4['runs']}; "
          f"p = {f4['p']:.3g} | {f4['verdict']} |")
    for c in comparisons["stage0"]["final_validation_loss"]:
        print(f"| stage 0 | {c.cell} | {fmt(c)} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
