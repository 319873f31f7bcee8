#!/usr/bin/env python
"""Service kill-and-resume smoke test: SIGKILL a live study server, restart,
and check the finished jobs are bit-identical to an in-process reference.

One command orchestrates the whole scenario::

    PYTHONPATH=src python scripts/service_smoke.py

1. run the study serially in-process (``StudyRunner``) — the reference,
2. start ``python -m repro.cli serve`` on an ephemeral port (``--port 0``;
   the bound address is discovered from the ``server.json`` the service
   writes at startup),
3. submit the study twice over HTTP — the second submission must dedupe
   onto the first job (same fingerprint, ``deduplicated: true``),
4. watch the job's chunked JSONL stream and ``kill -9`` the server the
   moment the first ``run_finished`` event arrives — no cleanup, no atexit,
   exactly like an OOM kill or node failure mid-study,
5. restart the server over the same root: startup recovery re-queues the
   job it finds dangling in ``running``, and the worker resumes it from the
   per-job ``runs.jsonl`` checkpoint (completed runs are spliced, never
   re-executed),
6. wait for the job to finish, then assert its results are **bit-identical**
   to the reference (timing metrics excluded) and that ``runs.jsonl`` holds
   exactly one record per run,
7. stop the server with SIGTERM and check it exits 0 leaving a clean
   ``shutdown.marker``.

Exit code 0 means the service's restart-safe resume contract holds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

#: mid-run session-snapshot interval (training batches) used by the service
CHECKPOINT_EVERY = 10

STUDY_NAME = "service-smoke"
N_RUNS = 3


def build_config():
    from repro.experiments.base import base_config

    config = base_config("smoke", method="breed", seed=0)
    return dataclasses.replace(
        config,
        hidden_size=16,
        n_hidden_layers=1,
        n_simulations=24,
        max_iterations=120,
        n_validation_trajectories=4,
    )


def configurations():
    return [{"hidden_size": 12 + 4 * i} for i in range(N_RUNS)]


def comparable_runs(runs: list) -> list:
    """Run payloads with measurement-only fields stripped.

    Wall-clock timing metrics and telemetry counter deltas are observation,
    not results: the service enables ``repro.telemetry`` while the in-process
    reference runs dark, and the bit-identity contract covers everything
    else.
    """
    from repro.workflow.executor import TIMING_METRICS

    stripped = []
    for run in sorted(runs, key=lambda r: r["name"]):
        run = dict(run)
        run["metrics"] = {
            k: v for k, v in run["metrics"].items() if k not in TIMING_METRICS
        }
        run.pop("telemetry", None)
        stripped.append(run)
    return stripped


def scrape_metrics(url: str) -> str:
    """Fetch and validate the Prometheus exposition from a live server."""
    from repro.service import ServiceClient

    text = ServiceClient(url, timeout=30.0).metrics()
    if not text.strip():
        raise SystemExit("FAIL: /v1/metrics served an empty exposition")
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition(" ")
        if not name or not value:
            raise SystemExit(f"FAIL: malformed exposition line {line!r}")
        float(value)  # every sample value must parse as a number
    if "repro_service_uptime_seconds" not in text:
        raise SystemExit("FAIL: exposition lacks the service gauges")
    return text


def run_reference() -> list:
    from repro.workflow.study import StudyRunner

    runner = StudyRunner(base_config=build_config(), study_name=STUDY_NAME)
    results = runner.run_all(configurations())
    return [run.to_dict() for run in results.runs]


# ------------------------------------------------------------------ server ops


def start_server(root: Path) -> subprocess.Popen:
    """Spawn ``repro.cli serve`` on an ephemeral port over ``root``."""
    (root / "server.json").unlink(missing_ok=True)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--root", str(root), "--port", "0", "--workers", "1",
            "--checkpoint-every", str(CHECKPOINT_EVERY),
        ],
        env=dict(os.environ),
    )


def discover_url(root: Path, proc: subprocess.Popen, timeout: float = 30.0) -> str:
    """The server's base URL, from the ``server.json`` it writes at startup."""
    from repro.service import ServiceClient

    deadline = time.monotonic() + timeout
    marker = root / "server.json"
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"server died during startup (exit {proc.returncode})")
        if marker.exists():
            try:
                url = json.loads(marker.read_text())["url"]
                ServiceClient(url, timeout=5.0).health()
                return url
            except Exception:  # noqa: BLE001 - half-written marker or booting server
                pass
        time.sleep(0.05)
    raise SystemExit(f"server did not come up within {timeout:.0f}s")


def kill_on_first_run(url: str, job_id: str, proc: subprocess.Popen) -> None:
    """SIGKILL the server the moment the job's first run completes."""
    from repro.service import ServiceClient

    client = ServiceClient(url, timeout=120.0)
    try:
        for event in client.stream(job_id):
            if event["event"] in ("done", "failed", "cancelled"):
                raise SystemExit(
                    f"job reached {event['event']!r} before the kill could land — "
                    "lengthen the runs so the study outlives its first run_finished"
                )
            if event["event"] == "run_finished":
                proc.send_signal(signal.SIGKILL)
                break
    except (ConnectionError, OSError):
        pass  # the dying server may tear the stream first; the kill was sent
    if proc.wait(timeout=30.0) != -signal.SIGKILL:
        raise SystemExit(f"server exited {proc.returncode}, expected SIGKILL")


# ---------------------------------------------------------------------- driver


def drive(workdir: Path, backend: Optional[str] = None) -> int:
    from repro.service import ServiceClient

    workdir.mkdir(parents=True, exist_ok=True)
    root = workdir / "service"
    config = build_config().to_dict()

    print(f"[1/5] running the in-process serial reference ({N_RUNS} runs)")
    reference = run_reference()

    print(f"[2/5] starting the server and submitting the study (plus a duplicate, "
          f"backend={backend or 'the service default'})")
    proc = start_server(root)
    url = discover_url(root, proc)
    client = ServiceClient(url, timeout=120.0)
    job = client.submit(STUDY_NAME, config, configurations(), backend=backend)
    duplicate = client.submit(STUDY_NAME, config, configurations(), backend=backend)
    if not duplicate["deduplicated"] or duplicate["id"] != job["id"]:
        print("FAIL: identical submission did not dedupe onto the first job")
        return 1
    print(f"      job {job['id']} queued; duplicate deduped onto it")

    print("[3/5] SIGKILLing the server at the first run_finished event")
    kill_on_first_run(url, job["id"], proc)
    state_on_disk = json.loads(
        (root / "jobs" / job["id"] / "job.json").read_text()
    )["state"]
    runs_lines = (root / "jobs" / job["id"] / "runs.jsonl").read_text().splitlines()
    print(f"      server dead; job is {state_on_disk!r} with "
          f"{len(runs_lines)} run(s) checkpointed")
    if state_on_disk != "running":
        print(f"FAIL: expected the job dangling in 'running', found {state_on_disk!r}")
        return 1

    print("[4/5] restarting the server; recovery must resume the job")
    proc = start_server(root)
    url = discover_url(root, proc)
    client = ServiceClient(url, timeout=120.0)
    # Mid-job observability check: the resumed job is live right now, so the
    # scrape must serve a well-formed exposition (runs in study-worker
    # processes add their counters to it as each finishes).
    exposition = scrape_metrics(url)
    (workdir / "metrics_midjob.txt").write_text(exposition)
    print(f"      /v1/metrics exposition well-formed mid-job "
          f"({len(exposition.splitlines())} lines; saved to metrics_midjob.txt)")
    final = client.wait(job["id"], timeout=600.0)
    if final["state"] != "done":
        print(f"FAIL: job ended {final['state']!r}: {final['error']}")
        return 1
    served = client.result(job["id"])["runs"]
    job_metrics = client.job(job["id"])["metrics"]
    if not job_metrics.get("repro_session_ticks_total"):
        print("FAIL: finished job carries no merged per-run telemetry counters")
        return 1

    lines = (root / "jobs" / job["id"] / "runs.jsonl").read_text().splitlines()
    if len(lines) != N_RUNS:
        print(f"FAIL: runs.jsonl holds {len(lines)} records, expected {N_RUNS} "
              "(a completed run was lost or re-executed)")
        return 1
    if comparable_runs(served) != comparable_runs(reference):
        print("FAIL: served results differ from the serial reference")
        return 1
    print(f"      job finished after restart; all {N_RUNS} runs bit-identical "
          "to the reference")

    print("[5/5] stopping the server with SIGTERM")
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=60.0)
    if code != 0:
        print(f"FAIL: graceful shutdown exited {code}, expected 0")
        return 1
    if not (root / "shutdown.marker").exists():
        print("FAIL: no shutdown.marker after a graceful stop")
        return 1
    print("OK: submit/dedupe, kill -9, restart-resume, and graceful shutdown all hold")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="results/service_smoke")
    parser.add_argument("--backend", default=None,
                        help="executor backend the submitted job names "
                             "(serial/process/shm; default: none, so the "
                             "service's default applies); the in-process "
                             "reference always runs serially, so any backend "
                             "must match it bit-identically")
    args = parser.parse_args()
    return drive(Path(args.workdir), backend=args.backend)


if __name__ == "__main__":
    raise SystemExit(main())
