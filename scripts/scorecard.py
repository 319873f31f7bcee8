#!/usr/bin/env python
"""Run the scorecard as two campaigns and write its numbers to ``docs/results/scorecard/``.

* ``scorecard-small``, node ``cross`` (stage 0): Breed vs Random on every
  registered workload at ``small``, seeds 0–9;
* ``scorecard-paper``, node ``fig3a`` (stage 1): H=16, L ∈ {1, 3}, both
  methods at ``paper``, seeds 0–9; node ``confirmatory``: the same grid on
  the fresh seeds that ``plan.json`` names.

Both run in this process through :class:`repro.campaign.CampaignRunner` under
``results/scorecard/<campaign>/``, on two study workers with one BLAS thread
each and no mid-run snapshots: run again after a kill, the script resumes and
has lost at most the runs in flight.  ``scorecard-paper``'s name carries the
plan's sha256, so after an edit of ``plan.json`` the resume raises
``CampaignResumeError`` instead of rendering.  Findings 2 and 4 are read from
stage 1's records, finding 3 from the confirmatory Breed runs::

    PYTHONPATH=src python scripts/scorecard.py            # ≈ 5 + 30 + 55 min on 2 cores

Written, all metrics and no arrays:

* ``stage<k>_runs.json`` — every run's final metrics (wall-clock ones
  excepted) with its configuration digest;
* ``stage<k>_compare_<metric>.json`` — the paired comparisons, as
  ``repro compare --json`` prints them;
* ``findings.json`` — findings 2, 3 and 4, with the steering shares measured
  in wall-clock time (they regenerate within timing noise only);
* ``confirmatory.json`` — every endpoint the plan names: the plan's hash,
  wins and losses, p, the Holm-adjusted p of the secondaries, the verdict.

It also prints the rows of the "Results" tables in ``EXPERIMENTS.md``: a
verdict for each planned endpoint, *exploratory* in every other row.
"""

from __future__ import annotations

import os

# one BLAS thread per process, as in benchmarks/e2e: the two study workers fill the cores
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

import numpy as np  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.correlation import CORRELATION_COLUMNS, CorrelationMatrix  # noqa: E402
from repro.analysis.deviation import parameter_vector_deviation  # noqa: E402
from repro.api.registry import workload_names  # noqa: E402
from repro.campaign import CampaignRunner, CampaignSpec, NodeSpec  # noqa: E402
from repro.experiments.base import base_config  # noqa: E402
from repro.experiments.cross_workload import _scaled_sigma, cross_workload_configurations  # noqa: E402
from repro.experiments.fig3a import fig3a_configurations  # noqa: E402
from repro.experiments.fig4 import Fig4Result  # noqa: E402
from repro.experiments.fig6 import Fig6Result  # noqa: E402
from repro.experiments.overhead import NEGLIGIBLE_SHARE, OverheadResult  # noqa: E402
from repro.workflow.executor import TIMING_METRICS  # noqa: E402
from repro.workflow.results import (  # noqa: E402
    SIGNIFICANCE,
    PairedComparison,
    RunResult,
    StudyResults,
    sign_test_p,
    verdict,
)

PLAN = REPO_ROOT / "docs" / "results" / "scorecard" / "plan.json"
EXPLORATORY_SEEDS = tuple(range(10))

#: stage → its compared metrics
STAGES = {"stage0": ("final_validation_loss",), "stage1": ("final_validation_loss", "overfit_gap")}

#: the Fig. 6 claim of each planned coefficient, on one run's key findings
FIG6_CLAIMS = {
    "deviation_vs_iteration": lambda k: abs(k["deviation_vs_iteration"]) < abs(k["sample_loss_vs_iteration"]),
    "deviation_vs_sample_loss": lambda k: k["deviation_vs_sample_loss"] > 0.0,
    "batch_loss_vs_iteration": lambda k: k["batch_loss_vs_iteration"] < 0.0,
    "sample_loss_vs_iteration": lambda k: k["sample_loss_vs_iteration"] < 0.0,
}


# ----------------------------------------------------------------- campaigns
def small_campaign(scale: str = "small", seeds: Sequence[int] = EXPLORATORY_SEEDS) -> CampaignSpec:
    """Stage 0: ``cross`` on every registered workload, σ scaled to each workload's box."""
    template = base_config(scale)
    workloads = workload_names()
    sigmas = {name: _scaled_sigma(template, name) for name in workloads}
    grid = cross_workload_configurations(workloads, sigmas=sigmas)
    node = NodeSpec("cross", configurations=tuple(grid), name_key="_name", seeds=tuple(seeds))
    return CampaignSpec(name="scorecard-small", config=template.to_dict(), nodes=(node,))


def paper_campaign(
    scale: str = "paper",
    seeds: Sequence[int] = EXPLORATORY_SEEDS,
    confirmatory_seeds: Optional[Sequence[int]] = None,
    plan: Path = PLAN,
) -> CampaignSpec:
    """Stage 1 and the confirmatory node (the plan's seeds unless given); the plan's hash names it."""
    text = Path(plan).read_bytes()
    if confirmatory_seeds is None:
        confirmatory_seeds = json.loads(text)["seeds"]
    grid = tuple(fig3a_configurations([16], [1, 3]))
    return CampaignSpec(
        name=f"scorecard-paper@plan-{hashlib.sha256(text).hexdigest()}",
        config=base_config(scale).to_dict(),
        nodes=(
            NodeSpec("fig3a", configurations=grid, name_key="_name", seeds=tuple(seeds)),
            NodeSpec("confirmatory", configurations=grid, name_key="_name", seeds=tuple(confirmatory_seeds)),
        ),
    )


def run_campaign(spec: CampaignSpec, root: Path, jobs: int) -> Tuple[Dict[str, StudyResults], int]:
    """Run or resume one campaign: its node results and the runs this call executed."""
    result = CampaignRunner(spec, root, backend="process", max_workers=jobs, checkpoint_every=0,
                            on_result=lambda run: print(f"finished {run.name}", flush=True)).run(resume=True)
    if not result.ok:
        raise SystemExit(f"{spec.name}: nodes not done {result.states}; nothing rendered, run again to resume")
    return result.results, result.runs_executed


# ---------------------------------------------------------------- statistics
def holm(ps: Sequence[float]) -> List[float]:
    """Holm–Bonferroni adjusted p-values, in the order given."""
    adjusted = [0.0] * len(ps)
    running = 0.0
    for rank, index in enumerate(sorted(range(len(ps)), key=lambda i: ps[i])):
        running = max(running, min(1.0, (len(ps) - rank) * ps[index]))
        adjusted[index] = running
    return adjusted


def decide(wins: int, losses: int, p: float) -> str:
    """:func:`verdict` on a given (adjusted) p."""
    if p < SIGNIFICANCE:
        return "holds" if wins > losses else "does not hold"
    return "unresolved"


def key_findings(run: RunResult) -> Dict[str, float]:
    return CorrelationMatrix(CORRELATION_COLUMNS, np.asarray(run.analysis("sample_correlations"))).key_findings()


def endpoint_outcome(endpoint: Dict[str, object], study: StudyResults) -> Dict[str, object]:
    """Wins, losses and the sign-test p of one planned endpoint on the confirmatory runs."""
    if "baseline" in endpoint:
        cell = " ".join(f"{k}={v}" for k, v in sorted(endpoint["cell"].items()))
        (comparison,) = [
            c for c in study.paired(endpoint["metric"], better=endpoint["better"])
            if (c.cell, c.group, c.baseline) == (cell, endpoint["group"], endpoint["baseline"])
        ]
        wins, losses, summary = comparison.wins, comparison.losses, ours(comparison)
    else:
        claim = FIG6_CLAIMS[endpoint["metric"]]
        runs = study.filter(**endpoint["cell"], method=endpoint["group"])
        wins = sum(bool(claim(key_findings(run))) for run in runs)
        losses = len(runs) - wins
        values = sorted(key_findings(run)[endpoint["metric"]] for run in runs)
        summary = f"{values[0]:+.3f} to {values[-1]:+.3f}; holds in {wins}/{len(runs)}; p = {sign_test_p(wins, losses):.3g}"
    return {"name": endpoint["name"], "metric": endpoint["metric"], "wins": wins, "losses": losses,
            "p": sign_test_p(wins, losses), "summary": summary}


def confirmatory_report(plan: Dict[str, object], plan_sha256: str, study: StudyResults) -> Dict[str, object]:
    """Every endpoint the plan names, and nothing else, with its verdict."""
    primary = [dict(endpoint_outcome(e, study), role="primary") for e in plan["primary"]]
    secondary = [dict(endpoint_outcome(e, study), role="secondary") for e in plan["secondary"]["endpoints"]]
    for outcome in primary:
        outcome["verdict"] = decide(outcome["wins"], outcome["losses"], outcome["p"])
    for outcome, p_holm in zip(secondary, holm([o["p"] for o in secondary])):
        outcome["p_holm"] = p_holm
        outcome["verdict"] = decide(outcome["wins"], outcome["losses"], p_holm)
    return {"plan_sha256": plan_sha256, "seeds": sorted({run.seed for run in study}), "endpoints": primary + secondary}


# ----------------------------------------------------------------- rendering
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


def fig6_finding(study: StudyResults, plan: Dict[str, object]) -> Dict[str, object]:
    """Finding 3: the Fig. 6 coefficients of the confirmatory Breed runs in the planned cell."""
    cell = next(e["cell"] for e in plan["secondary"]["endpoints"] if e["metric"] in FIG6_CLAIMS)
    runs = StudyResults(study.study, study.filter(**cell, method="breed"))
    return {
        "runs": [run.name for run in runs],
        "mean_matrix": Fig6Result.from_study(runs).key_findings(),
        "per_run": {run.name: key_findings(run) for run in runs},
    }


def ours(c: PairedComparison) -> str:
    """The ``ours`` cell of a Results row, from the ``repro compare`` table's text (its verdict left out)."""
    return "{} vs {}; {}; {}; p = {}".format(*c.text_cells()[:5])


def results_rows(report: Dict[str, object], stage0: StudyResults, stage1: StudyResults,
                 findings: Dict[str, object]) -> List[str]:
    """The Results rows: the confirmatory block first, then the exploratory ones."""
    rows = []
    for e in report["endpoints"]:
        holm_p = f"; Holm p = {e['p_holm']:.3g}" if "p_holm" in e else ""
        rows.append(f"| {e['role']} | {e['name']} | {e['summary']}{holm_p} | {e['verdict']} |")
    for metric in STAGES["stage1"]:
        rows += [f"| 1 | stage 1, {c.cell}, {metric} | {ours(c)} | exploratory |" for c in stage1.paired(metric)]
    rows += [f"| 2 | stage 1, {c.cell}, mean deviation (higher) | {ours(c)} | exploratory |"
             for c in stage1.paired(mean_deviation, better="higher")]
    f4 = findings["finding4_overhead"]
    rows.append(f"| 4 | stage 1 Breed runs, steering share < 5 % | {f4['runs_under_threshold']}/{f4['runs']}; "
                f"p = {f4['p']:.3g} | exploratory |")
    rows += [f"| stage 0 | {c.cell} | {ours(c)} | exploratory |" for c in stage0.paired("final_validation_loss")]
    return rows


def scorecard(
    out: Path,
    docs: Path,
    jobs: int = 2,
    small_scale: str = "small",
    paper_scale: str = "paper",
    seeds: Sequence[int] = EXPLORATORY_SEEDS,
    confirmatory_seeds: Optional[Sequence[int]] = None,
    plan: Path = PLAN,
) -> int:
    """Run or resume both campaigns, write every file into ``docs``; the runs this call executed."""
    small, executed_small = run_campaign(small_campaign(small_scale, seeds), out / "scorecard-small", jobs)
    paper_spec = paper_campaign(paper_scale, seeds, confirmatory_seeds, plan)
    paper, executed_paper = run_campaign(paper_spec, out / "scorecard-paper", jobs)
    studies = {"stage0": small["cross"], "stage1": paper["fig3a"]}

    docs.mkdir(parents=True, exist_ok=True)
    for name, metrics in STAGES.items():
        (docs / f"{name}_runs.json").write_text(json.dumps(run_rows(studies[name]), indent=2) + "\n")
        for metric in metrics:
            comparisons = [c.to_dict() for c in studies[name].paired(metric)]
            (docs / f"{name}_compare_{metric}.json").write_text(json.dumps(comparisons, indent=2) + "\n")

    plan_text = Path(plan).read_bytes()
    plan_doc = json.loads(plan_text)
    stage1 = studies["stage1"]
    findings = {
        "finding2_fig4": {
            "pooled": Fig4Result.from_study(stage1).summary(),
            "paired_mean_deviation": [c.to_dict() for c in stage1.paired(mean_deviation, better="higher")],
        },
        "finding3_fig6": fig6_finding(paper["confirmatory"], plan_doc),
        "finding4_overhead": overhead_finding(stage1),
    }
    (docs / "findings.json").write_text(json.dumps(findings, indent=2) + "\n")
    report = confirmatory_report(plan_doc, hashlib.sha256(plan_text).hexdigest(), paper["confirmatory"])
    (docs / "confirmatory.json").write_text(json.dumps(report, indent=2) + "\n")

    print("\nResults rows (EXPERIMENTS.md):")
    print("\n".join(results_rows(report, studies["stage0"], stage1, findings)))
    return executed_small + executed_paper


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--jobs", type=int, default=2, help="study workers (default: 2)")
    parser.add_argument("--out", default=str(REPO_ROOT / "results" / "scorecard"),
                        help="campaign roots (default: results/scorecard)")
    parser.add_argument("--docs", default=str(REPO_ROOT / "docs" / "results" / "scorecard"),
                        help="where the committed numbers go (default: docs/results/scorecard)")
    args = parser.parse_args()
    executed = scorecard(Path(args.out), Path(args.docs), args.jobs)
    print(f"\nruns executed: {executed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
