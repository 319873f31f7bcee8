#!/usr/bin/env python
"""Campaign kill-and-resume smoke test: SIGKILL ``repro campaign`` mid-node,
resume over the same root, and check the outcome against an uninterrupted
reference.

One command orchestrates the whole scenario::

    PYTHONPATH=src python scripts/campaign_smoke.py [--backend serial|shm]

1. run the campaign (a diamond DAG whose ``left`` node runs each of its
   configurations on seeds 5 and 6, and whose ``right`` node shares one
   configuration and seed with ``left``) uninterrupted in-process — the
   reference,
2. launch ``python -m repro.cli campaign`` as a subprocess with a
   deterministic fault armed through the ``repro.workflow.faults`` env
   protocol: SIGKILL the driver when it reaches the chosen node/run — no
   cleanup, no atexit, exactly like an OOM kill mid-campaign,
3. relaunch with ``--resume`` over the same root and wait for a clean exit,
4. assert the final ``result.json`` is **bit-identical** to the reference
   (wall-clock timing metrics excluded), that the manifest ledger shows
   every executed run digest exactly once across BOTH invocations (completed
   runs were spliced, never re-executed), and that the shared configuration
   was satisfied from the artifact cache (one ``cached`` run event),
5. run ``repro doctor`` between kill and resume: the abandoned campaign must
   be flagged with the exact resume command.

``--backend serial`` kills the driver *mid-run* (the ``run`` injection point
fires inside ``execute_spec`` in the driver process); ``--backend shm`` (an
alias of ``process``) kills the driver at a *run boundary* (the ``record``
point — under it the ``run`` point would fire in a pool worker instead of the
orchestrator).

Exit code 0 means the campaign resume contract holds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")

CAMPAIGN_NAME = "campaign-smoke"

#: run the fault lands on, per backend (mid-DAG in both cases): left's third, a seeded name
FAULT = {"serial": ("run", "left:1-s5"), "shm": ("record", "left:1-s5")}


def campaign_payload(backend: str) -> dict:
    import dataclasses

    from repro.experiments.base import base_config

    config = dataclasses.replace(
        base_config("smoke", method="breed", seed=5),
        n_simulations=4,
        max_iterations=20,
        n_validation_trajectories=2,
        hidden_size=8,
        n_hidden_layers=1,
    )
    return {
        "name": CAMPAIGN_NAME,
        "config": config.to_dict(),
        "backend": backend,
        "max_workers": 2,
        "nodes": [
            {"name": "src", "configurations": [{"sigma": 0.1}]},
            {"name": "left", "depends_on": ["src"],
             "configurations": [{"sigma": 0.3}, {"sigma": 0.5}], "seeds": [5, 6]},
            {"name": "right", "depends_on": ["src"],
             "configurations": [{"sigma": 0.5}]},  # left:1-s5's digest -> cache
            {"name": "join", "depends_on": ["left", "right"],
             "select": {"type": "top_k", "node": "left",
                        "metric": "final_validation_loss", "k": 1,
                        "overrides": {"max_iterations": 24}}},
        ],
    }


def comparable_nodes(payload: dict) -> dict:
    from repro.workflow.executor import TIMING_METRICS

    out = {}
    for node, runs in payload["nodes"].items():
        stripped = []
        for run in runs:
            run = dict(run)
            run.pop("telemetry", None)
            run["metrics"] = {
                k: v for k, v in run["metrics"].items() if k not in TIMING_METRICS
            }
            stripped.append(run)
        out[node] = stripped
    return out


def launch(args: list, env_extra: dict) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    env.update(env_extra)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign", *[str(a) for a in args]],
        env=env,
        start_new_session=True,
    )


def reap(process: subprocess.Popen) -> None:
    """Kill the invocation's whole session (a killed driver's workers included)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=("serial", "shm"), default="serial")
    parser.add_argument("--workdir", default="results/campaign_smoke", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    from repro.campaign import CampaignManifest, CampaignRunner, CampaignSpec
    from repro.doctor import diagnose
    from repro.workflow.faults import MODE_ENV, TOKEN_ENV

    workdir: Path = args.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    payload = campaign_payload(args.backend)
    spec_file = workdir / "campaign.json"
    spec_file.write_text(json.dumps(payload))

    print(f"[1/5] uninterrupted in-process reference ({args.backend})")
    reference = CampaignRunner(
        CampaignSpec.from_dict(payload), workdir / "reference"
    ).run()
    assert reference.ok, f"reference failed: {reference.states}"
    reference_nodes = comparable_nodes(reference.to_dict())

    point, run = FAULT[args.backend]
    token = f"{point}:{run}"
    root = workdir / "victim"
    print(f"[2/5] victim campaign, SIGKILL armed at {token}")
    victim = launch([spec_file, "--root", root], {TOKEN_ENV: token, MODE_ENV: "sigkill"})
    try:
        rc = victim.wait(timeout=600)
    finally:
        reap(victim)
    assert rc == -signal.SIGKILL, f"victim exited {rc}, expected SIGKILL"
    assert not (root / "result.json").exists(), "victim should die before finishing"

    print("[3/5] repro doctor flags the abandoned campaign")
    report = diagnose([workdir])
    finding = next(c for c in report["campaigns"] if c["root"] == str(root))
    assert finding["status"] == "abandoned", finding
    assert any("--resume" in issue for issue in report["issues"]), report["issues"]

    print("[4/5] resume over the same root")
    resumed = launch([spec_file, "--root", root, "--resume"], {})
    try:
        rc = resumed.wait(timeout=600)
    finally:
        reap(resumed)
    assert rc == 0, f"resume exited {rc}"

    print("[5/5] bit-identity + execute-exactly-once ledger checks")
    final = json.loads((root / "result.json").read_text())
    assert comparable_nodes(final) == reference_nodes, "resumed result differs from reference"

    manifest = CampaignManifest(root / "manifest.jsonl")
    counts = manifest.executed_run_counts()
    assert counts and all(c == 1 for c in counts.values()), counts
    assert len(counts) == 6, f"expected 6 executed digests, got {sorted(counts)}"
    cached = [
        e for e in manifest.load() if e["event"] == "run_finished" and e.get("cached")
    ]
    assert len(cached) == 1, f"expected exactly one cache-spliced run, got {len(cached)}"

    print(f"campaign kill-and-resume smoke passed ({args.backend}): "
          f"{len(counts)} digests executed once, 1 cache hit, bit-identical resume")
    return 0


if __name__ == "__main__":
    sys.exit(main())
