"""``python -m repro.cli campaign`` — run a campaign spec from the shell.

.. code-block:: console

    $ repro campaign screen.json --root results/screen --jobs 4 --backend shm
    $ repro campaign screen.json --root results/screen --resume   # after a kill
    $ repro campaign --root results/screen --resume               # spec recalled
    $ repro campaign screen.json --dry-run                        # schedule only

The root keeps everything (`manifest.jsonl` and the per-node
checkpoints), so `--resume` over the same root re-enters bit-identically at
any kill point; a root with history refuses a non-resume launch unless
``--fresh`` wipes it first.  See ``docs/CAMPAIGNS.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.report import format_table
from repro.campaign.runner import CampaignResumeError, CampaignRunner
from repro.campaign.spec import (
    CampaignSpec,
    CampaignSpecError,
    topological_order,
)
from repro.workflow.executor import BACKENDS

__all__ = ["build_campaign_parser", "campaign_main"]


def build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Run a resumable DAG-of-studies campaign (docs/CAMPAIGNS.md).",
    )
    parser.add_argument("spec", nargs="?", metavar="SPEC.json",
                        help="campaign spec file; optional with --resume when the "
                             "root already holds the campaign.json it was started with")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="campaign root directory holding the manifest "
                             "and the per-node checkpoints "
                             "(default: results/campaigns/<name>)")
    parser.add_argument("--resume", action="store_true",
                        help="continue a previous invocation over the same root: "
                             "completed nodes/runs are spliced, interrupted runs "
                             "re-enter from their snapshots")
    parser.add_argument("--fresh", action="store_true",
                        help="delete the campaign root first (discards all progress)")
    parser.add_argument("--backend", choices=list(BACKENDS), default=None,
                        help="executor backend override (default: the spec's)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker-pool size override for the parallel backends")
    parser.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                        help="mid-run session-snapshot period override in training batches")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the deterministic schedule and exit without running")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable campaign summary as JSON")
    return parser


def _load_spec(args: argparse.Namespace) -> CampaignSpec:
    spec_path = args.spec
    if spec_path is None:
        if args.root is None:
            raise CampaignSpecError("pass a SPEC.json file (or --root with --resume)")
        spec_path = Path(args.root) / "campaign.json"
        if not spec_path.exists():
            raise CampaignSpecError(
                f"no spec given and {spec_path} does not exist — pass the SPEC.json "
                "the campaign was started with"
            )
    try:
        payload = json.loads(Path(spec_path).read_text())
    except FileNotFoundError:
        raise CampaignSpecError(f"spec file not found: {spec_path}") from None
    except json.JSONDecodeError as exc:
        raise CampaignSpecError(f"spec file {spec_path} is not valid JSON: {exc}") from None
    return CampaignSpec.from_dict(payload)


def _schedule_table(spec: CampaignSpec) -> str:
    rows = []
    for node in topological_order(spec):
        if node.select is not None:
            source = f"top-{node.select.k} of {node.select.node} by {node.select.metric}"
        else:
            source = "literal configurations"
        rows.append((node.name, ", ".join(node.depends_on) or "-", str(node.run_count()), source))
    return format_table(["node", "depends on", "runs", "configurations"], rows)


def campaign_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.cli campaign``."""
    from repro.cli import _install_signal_handlers

    args = build_campaign_parser().parse_args(argv)
    try:
        spec = _load_spec(args)
    except CampaignSpecError as exc:
        print(f"repro campaign: {exc}", file=sys.stderr)
        return 2

    root = Path(args.root) if args.root is not None else Path("results") / "campaigns" / spec.name
    if args.dry_run:
        print(f"campaign {spec.name!r} over root {root} (backend: "
              f"{args.backend or spec.backend})")
        print(_schedule_table(spec))
        print(f"estimated runs: {spec.estimated_runs()}")
        return 0
    if args.fresh and root.exists():
        shutil.rmtree(root)

    runner = CampaignRunner(
        spec,
        root,
        backend=args.backend,
        max_workers=args.jobs,
        checkpoint_every=args.checkpoint_every,
        on_result=lambda run: print(f"finished {run.name}", flush=True),
    )
    _install_signal_handlers()
    try:
        result = runner.run(resume=args.resume)
    except (CampaignResumeError, CampaignSpecError) as exc:
        print(f"repro campaign: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"\ninterrupted — progress is checkpointed; continue with:\n"
              f"  repro campaign --root {root} --resume", flush=True)
        return 130

    rows = [
        (node, result.states[node], str(len(result.results[node].runs))
         if node in result.results else "-")
        for node in result.states
    ]
    print(format_table(["node", "state", "runs"], rows))
    print(f"cache hits: {result.cache_hits}  executed: {result.runs_executed}  "
          f"resumed: {result.runs_resumed}")
    if args.json:
        summary = {
            "campaign": result.campaign,
            "root": str(root),
            "states": result.states,
            "cache_hits": result.cache_hits,
            "runs_executed": result.runs_executed,
            "runs_resumed": result.runs_resumed,
            "ok": result.ok,
        }
        print(json.dumps(summary, sort_keys=True))
    if not result.ok:
        print(f"campaign {spec.name!r} has failed/skipped nodes; fix and re-run with "
              f"--resume to retry them", file=sys.stderr)
        return 1
    return 0
