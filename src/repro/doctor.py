"""``repro doctor`` — environment and artifact health checks.

A read-only diagnostic pass over the operational residue the toolkit can
leave behind, reported as a plain-text table (and ``--json`` for scripts):

* **service roots** — ``server.json`` files advertising study services.
  Each advertised URL is probed with a short-timeout health request; a root
  whose server does not answer *and* has no clean ``shutdown.marker`` is
  reported as a crashed server (its jobs will recover on the next
  ``repro serve --root <dir>``).
* **checkpoint usage** — disk consumed by session-snapshot directories
  (``*.snapshots`` and ``step-*`` trees) under the scanned roots, so
  oversized retention is visible before the disk fills.
* **solver workers** — how many CPUs this process may use and whether a
  :class:`~repro.api.session.TrainingSession` started here would hand its
  solver work to worker processes (:mod:`repro.melissa.workers`), else the
  name of the condition that keeps it inline.  Informational: never an issue.
* **campaign manifests** — campaign roots (``manifest.jsonl`` ledgers, see
  :mod:`repro.campaign`) whose latest invocation has a node marked running
  but whose writing process is gone: an abandoned campaign, reported with
  the exact ``repro campaign --root <dir> --resume`` command that re-enters
  it bit-identically.

Exit status: 0 when healthy, 1 when something needs attention (a crashed
service root or an abandoned campaign).
"""

from __future__ import annotations

import argparse
import json
import os
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["build_doctor_parser", "diagnose", "doctor_main"]

#: health-probe timeout: doctors must not hang on a wedged server
_PROBE_TIMEOUT_SECONDS = 2.0


def _probe_health(url: str, timeout: float = _PROBE_TIMEOUT_SECONDS) -> Optional[Dict[str, Any]]:
    """The server's health payload, or ``None`` when it does not answer."""
    try:
        with urllib.request.urlopen(f"{url}/v1/health", timeout=timeout) as response:
            return json.loads(response.read().decode())
    except (urllib.error.URLError, OSError, ValueError):
        return None


def _scan_service_roots(roots: List[Path]) -> List[Dict[str, Any]]:
    """Inspect every ``server.json`` under the scanned roots (recursive)."""
    findings: List[Dict[str, Any]] = []
    seen = set()
    for root in roots:
        if not root.is_dir():
            continue
        for marker in sorted(root.rglob("server.json")):
            key = marker.resolve()
            if key in seen:
                continue
            seen.add(key)
            try:
                advertised = json.loads(marker.read_text())
            except (json.JSONDecodeError, OSError):
                findings.append(
                    {"root": str(marker.parent), "status": "corrupt", "url": None}
                )
                continue
            url = str(advertised.get("url", ""))
            health = _probe_health(url) if url else None
            if health is not None:
                status = "live"
            elif (marker.parent / "shutdown.marker").exists():
                status = "stopped"  # clean shutdown; server.json is just stale
            else:
                status = "crashed"  # no server, no clean-stop marker
            findings.append(
                {
                    "root": str(marker.parent),
                    "status": status,
                    "url": url or None,
                    "version": advertised.get("version"),
                }
            )
    return findings


def _tree_bytes(path: Path) -> int:
    total = 0
    for dirpath, _dirnames, filenames in os.walk(path):
        for name in filenames:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:  # pragma: no cover - racing deletion
                continue
    return total


def _scan_checkpoints(roots: List[Path]) -> List[Dict[str, Any]]:
    """Disk usage of snapshot trees (``*.snapshots`` dirs and ``step-*`` sets)."""
    findings: List[Dict[str, Any]] = []
    seen = set()
    for root in roots:
        if not root.is_dir():
            continue
        for directory in sorted(root.rglob("*.snapshots")):
            key = directory.resolve()
            if key in seen or not directory.is_dir():
                continue
            seen.add(key)
            findings.append(
                {
                    "directory": str(directory),
                    "bytes": _tree_bytes(directory),
                    "snapshots": sum(1 for _ in directory.rglob("step-*")),
                }
            )
    return findings


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process we could signal (0 probes only)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by someone else
        return True
    return True


def _scan_campaigns(roots: List[Path]) -> List[Dict[str, Any]]:
    """Classify every campaign manifest under the scanned roots.

    ``finished`` — latest invocation reached ``campaign_finished``;
    ``running`` — open node attempts and the recording pid is alive;
    ``abandoned`` — open node attempts but the pid is gone (killed mid-node);
    a finished campaign with no open attempts and a dead pid is ``stale``
    only in the sense that nothing needs doing, so it stays ``finished``.
    """
    from repro.campaign.manifest import CampaignManifest

    findings: List[Dict[str, Any]] = []
    seen = set()
    for root in roots:
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("manifest.jsonl")):
            key = path.resolve()
            if key in seen:
                continue
            seen.add(key)
            manifest = CampaignManifest(path)
            events = manifest.load()
            if not events or events[0].get("event") != "campaign_started":
                continue  # some other JSONL file, not a campaign ledger
            invocation = manifest.last_invocation()
            campaign = invocation[0].get("campaign") if invocation else None
            open_nodes = manifest.running_nodes()
            if manifest.finished():
                status = "finished"
            elif open_nodes and any(_pid_alive(pid) for pid in open_nodes.values()):
                status = "running"
            elif not _pid_alive(int(invocation[-1].get("pid", 0))):
                status = "abandoned"
            else:
                status = "running"
            findings.append(
                {
                    "root": str(path.parent),
                    "campaign": campaign,
                    "status": status,
                    "running_nodes": sorted(open_nodes),
                    "pid": int(invocation[-1].get("pid", 0)) if invocation else 0,
                }
            )
    return findings


def _solver_workers() -> Dict[str, Any]:
    """The session's solver-worker selection as this process would make it."""
    from repro.melissa.workers import MIN_TRAJECTORY_FLOATS, inline_reason, usable_cpus

    reason = inline_reason()
    return {
        "usable_cpus": usable_cpus(),
        "would_use_workers": reason is None,
        "inline_reason": reason,
        "min_trajectory_floats": MIN_TRAJECTORY_FLOATS,
    }


def diagnose(roots: List[Path]) -> Dict[str, Any]:
    """Run every check; the payload ``doctor_main`` renders and exits on."""
    services = _scan_service_roots(roots)
    checkpoints = _scan_checkpoints(roots)
    campaigns = _scan_campaigns(roots)
    issues: List[str] = []
    for service in services:
        if service["status"] == "crashed":
            issues.append(
                f"service root {service['root']} advertises {service['url']} but no "
                f"server answers and no clean shutdown marker exists; "
                f"`repro serve --root {service['root']}` recovers its jobs"
            )
        elif service["status"] == "corrupt":
            issues.append(f"service root {service['root']} has an unreadable server.json")
    for campaign in campaigns:
        if campaign["status"] == "abandoned":
            nodes = ", ".join(campaign["running_nodes"]) or "?"
            issues.append(
                f"campaign {campaign['campaign']!r} at {campaign['root']} was "
                f"abandoned (node(s) {nodes} marked running, pid {campaign['pid']} "
                f"is gone); resume with: "
                f"repro campaign --root {campaign['root']} --resume"
            )
    return {
        "service_roots": services,
        "checkpoint_usage": checkpoints,
        "campaigns": campaigns,
        "solver_workers": _solver_workers(),
        "issues": issues,
        "healthy": not issues,
    }


def build_doctor_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro doctor",
        description="Diagnose operational residue: stale/crashed service "
                    "roots, abandoned campaigns, and checkpoint disk usage.  "
                    "Read-only; exit 1 when attention is needed.",
    )
    parser.add_argument(
        "roots", nargs="*", default=None, metavar="DIR",
        help="directories to scan for server.json files and snapshot trees "
             "(default: ., results/, service/)",
    )
    parser.add_argument("--json", action="store_true", help="emit the findings as JSON")
    return parser


def doctor_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.cli doctor``."""
    from repro.analysis.report import format_table

    args = build_doctor_parser().parse_args(argv)
    roots = [Path(r) for r in (args.roots or [".", "results", "service"])]
    report = diagnose(roots)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0 if report["healthy"] else 1

    if report["service_roots"]:
        print(format_table(
            ["service root", "status", "url"],
            [(s["root"], s["status"], s["url"] or "-") for s in report["service_roots"]],
        ))
    else:
        print("service roots: none found")
    if report["checkpoint_usage"]:
        print(format_table(
            ["checkpoint directory", "snapshots", "MiB"],
            [
                (c["directory"], str(c["snapshots"]), f"{c['bytes'] / 2**20:.2f}")
                for c in report["checkpoint_usage"]
            ],
        ))
    else:
        print("checkpoint snapshots: none found")
    if report["campaigns"]:
        print(format_table(
            ["campaign root", "campaign", "status", "open nodes"],
            [
                (c["root"], c["campaign"] or "-", c["status"],
                 ", ".join(c["running_nodes"]) or "-")
                for c in report["campaigns"]
            ],
        ))
    else:
        print("campaign manifests: none found")
    workers = report["solver_workers"]
    if workers["would_use_workers"]:
        verdict = (
            f"a session here forks {workers['usable_cpus']} solver workers when a trajectory "
            f"has >= {workers['min_trajectory_floats']} floats (else inline: small_trajectory)"
        )
    else:
        verdict = f"a session here steps its solvers inline ({workers['inline_reason']})"
    print(f"solver workers: {workers['usable_cpus']} usable CPU(s); {verdict}")
    for issue in report["issues"]:
        print(f"ISSUE: {issue}")
    print("healthy" if report["healthy"] else "attention needed")
    return 0 if report["healthy"] else 1
