"""``repro`` — command-line launcher for the paper-reproduction experiments.

The CLI is the user-facing face of the study-execution engine
(:mod:`repro.workflow.executor`): it can launch any registered experiment at
any scale with any executor backend, write results under an output directory,
and resume interrupted studies from their JSONL checkpoints::

    python -m repro.cli fig3b --scale smoke --jobs 8 --out results/
    python -m repro.cli fig3a --scale small --jobs 4 --resume results/fig3a_small.runs.jsonl
    python -m repro.cli table1
    repro --list                       # installed console script

Study-shaped experiments (fig3a, fig3b, cross) honour ``--jobs``/``--backend``
and checkpoint each run as it finishes; the single/dual-run experiments (fig4,
fig6, overhead) need the full in-process results and always run serially.

``--workload NAME`` points an experiment at any registered workload
(``heat2d`` by default); the ``cross`` experiment compares Breed vs Random
across *every* registered workload (or the repeated ``--workload`` flags)::

    python -m repro.cli fig3b --scale smoke --workload burgers
    python -m repro.cli cross --scale smoke --jobs 4
    python -m repro.cli cross --workload advection1d --workload fisher

``bench`` is the performance subcommand (see :mod:`repro.bench`): it runs
registered benchmark scenarios with warmup/repeat control, writes
schema-versioned ``BENCH_*.json`` reports, and gates on a regression
threshold against a baseline report::

    python -m repro.cli bench --out BENCH.json
    python -m repro.cli bench --compare benchmarks/baselines/BENCH_pr5.json

``serve`` starts the long-running study service (see :mod:`repro.service`):
an HTTP server with a persistent job queue that accepts study submissions,
streams progress, and resumes every in-flight job after a restart::

    python -m repro.cli serve --root studies/ --port 8517 --workers 2

``--checkpoint-every N`` additionally snapshots every run's *full session
state* every N training batches (see :mod:`repro.checkpoint`), and
``--restore`` resumes an interrupted invocation: completed runs are spliced
in from the JSONL checkpoint and partially completed runs re-enter
bit-identically from their latest session snapshot::

    python -m repro.cli fig3a --scale small --checkpoint-every 100   # … SIGKILL …
    python -m repro.cli fig3a --scale small --checkpoint-every 100 --restore
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import __version__
from repro.analysis.report import format_table
from repro.experiments.base import SCALES
from repro.workflow.executor import BACKENDS

__all__ = ["EXPERIMENTS", "Experiment", "main", "serve_main"]


@dataclass(frozen=True)
class Experiment:
    """One launchable experiment: a runner plus CLI metadata."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], Dict[str, object]]
    #: whether --jobs/--backend/--resume apply (study-shaped experiments)
    parallel: bool = False


def _resolve_backend(args: argparse.Namespace) -> tuple[str, Optional[int]]:
    """Backend name and worker count from ``--backend``/``--jobs``.

    ``--backend`` wins when given; otherwise ``--jobs N`` with ``N > 1``
    selects the process backend.
    """
    jobs: Optional[int] = args.jobs
    if args.backend is not None:
        return args.backend, jobs
    if jobs is not None and jobs > 1:
        return "process", jobs
    return "serial", jobs


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _checkpoint_path(args: argparse.Namespace, experiment: str) -> Path:
    """Checkpoint file of this invocation, started fresh unless resuming.

    Without ``--resume`` the file describes *this* invocation only — stale
    records from previous runs (possibly with other seeds) must not
    accumulate, or a later ``--resume`` would splice in whichever happened
    to be written last.  The sibling ``<checkpoint>.snapshots/`` directory is
    cleared under the same rule: a deliberately fresh invocation must not
    silently resume runs mid-way from a previous invocation's session
    snapshots (their wall-clock metrics would describe two invocations).
    """
    path = _out_dir(args) / f"{experiment}_{args.scale}.runs.jsonl"
    resuming_from_it = args.resume is not None and Path(args.resume).resolve() == path.resolve()
    if path.exists() and not resuming_from_it:
        path.unlink()
    snapshots = path.parent / f"{path.name}.snapshots"
    if snapshots.is_dir() and not resuming_from_it:
        shutil.rmtree(snapshots)
    return path


def _save_study(args: argparse.Namespace, experiment: str, study) -> Path:
    path = _out_dir(args) / f"{experiment}_{args.scale}.json"
    study.save_json(path)
    return path


def _save_summary(args: argparse.Namespace, experiment: str, summary: Dict[str, object]) -> Path:
    path = _out_dir(args) / f"{experiment}_{args.scale}.json"
    path.write_text(json.dumps(summary, indent=2, default=float))
    return path


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _single_workload(args: argparse.Namespace, experiment: str) -> str:
    """The one workload an experiment runs against (default: ``heat2d``).

    Only ``cross`` accepts several ``--workload`` flags; every other
    experiment is a single-scenario study.
    """
    workloads = args.workload or []
    if len(workloads) > 1:
        raise SystemExit(
            f"{experiment} runs against a single workload; got --workload {workloads} "
            f"(only 'cross' accepts several)"
        )
    return workloads[0] if workloads else "heat2d"


def _run_fig3a(args: argparse.Namespace) -> Dict[str, object]:
    from repro.experiments.fig3a import PAPER_HIDDEN_SIZES, PAPER_LAYER_COUNTS, run_fig3a

    backend, jobs = _resolve_backend(args)
    hidden_sizes = args.hidden or list(PAPER_HIDDEN_SIZES)
    layer_counts = args.layers or list(PAPER_LAYER_COUNTS)
    result = run_fig3a(
        scale=args.scale,
        hidden_sizes=hidden_sizes,
        layer_counts=layer_counts,
        seed=args.seed,
        backend=backend,
        max_workers=jobs,
        checkpoint=_checkpoint_path(args, "fig3a"),
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
        workload=_single_workload(args, "fig3a"),
        architecture=args.architecture,
    )
    print(format_table(
        ["architecture", "method", "train MSE", "validation MSE", "gap (val-train)"],
        [
            (label, method, f"{train:.5f}", f"{val:.5f}", f"{gap:+.5f}")
            for label, method, train, val, gap in result.summary_rows()
        ],
    ))
    path = _save_study(args, "fig3a", result.study)
    return {"experiment": "fig3a", "runs": len(result.study.runs), "results": str(path)}


def _run_fig3b(args: argparse.Namespace) -> Dict[str, object]:
    from repro.experiments.fig3b import PAPER_FACTORS, SMOKE_FACTORS, run_fig3b

    backend, jobs = _resolve_backend(args)
    factors = dict(SMOKE_FACTORS if args.scale == "smoke" else PAPER_FACTORS)
    if args.factor:
        unknown = sorted(set(args.factor) - set(factors))
        if unknown:
            raise SystemExit(f"unknown factor(s) {unknown}; options: {sorted(factors)}")
        factors = {name: factors[name] for name in args.factor}
    result = run_fig3b(
        scale=args.scale,
        factors=factors,
        seed=args.seed,
        backend=backend,
        max_workers=jobs,
        checkpoint=_checkpoint_path(args, "fig3b"),
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
        workload=_single_workload(args, "fig3b"),
        architecture=args.architecture,
    )
    print(format_table(
        ["hyper-parameter", "value", "train MSE", "validation MSE", "gap (val-train)"],
        [
            (factor, f"{value:g}", f"{train:.5f}", f"{val:.5f}", f"{gap:+.5f}")
            for factor, value, train, val, gap in result.summary_rows()
        ],
    ))
    path = _save_study(args, "fig3b", result.study)
    return {"experiment": "fig3b", "runs": len(result.study.runs), "results": str(path)}


def _run_fig4(args: argparse.Namespace) -> Dict[str, object]:
    from repro.experiments.fig4 import run_fig4

    result = run_fig4(scale=args.scale, seed=args.seed, workload=_single_workload(args, "fig4"))
    summary = result.summary()
    print(format_table(["metric", "value"], [(k, f"{v:.5f}") for k, v in summary.items()]))
    path = _save_summary(args, "fig4", summary)
    return {"experiment": "fig4", "results": str(path)}


def _run_fig6(args: argparse.Namespace) -> Dict[str, object]:
    from repro.experiments.fig6 import run_fig6

    result = run_fig6(scale=args.scale, seed=args.seed, workload=_single_workload(args, "fig6"))
    findings = result.key_findings()
    checks = result.checks()
    print(format_table(["correlation", "value"], [(k, f"{v:+.3f}") for k, v in findings.items()]))
    print(format_table(["check", "ok"], [(k, str(v)) for k, v in checks.items()]))
    path = _save_summary(args, "fig6", {"key_findings": findings, "checks": checks})
    return {"experiment": "fig6", "results": str(path)}


def _run_overhead(args: argparse.Namespace) -> Dict[str, object]:
    from repro.experiments.overhead import run_overhead

    result = run_overhead(
        scale=args.scale, seed=args.seed, workload=_single_workload(args, "overhead")
    )
    summary = result.summary()
    print(format_table(["metric", "value"], [(k, f"{v:.5f}") for k, v in summary.items()]))
    print(f"overhead negligible: {result.overhead_is_negligible}")
    path = _save_summary(args, "overhead", summary)
    return {"experiment": "overhead", "results": str(path)}


def _run_cross(args: argparse.Namespace) -> Dict[str, object]:
    from repro.api.registry import workload_names
    from repro.experiments.cross_workload import run_cross_workload

    backend, jobs = _resolve_backend(args)
    # The registry resolves keys case-insensitively; normalise before
    # validating so `--workload Burgers` is accepted, not falsely rejected.
    workloads = [name.lower() for name in args.workload] if args.workload else None
    if workloads:
        unknown = sorted(set(workloads) - set(workload_names()))
        if unknown:
            raise SystemExit(f"unknown workload(s) {unknown}; options: {workload_names()}")
    result = run_cross_workload(
        scale=args.scale,
        workloads=workloads,
        seed=args.seed,
        backend=backend,
        max_workers=jobs,
        checkpoint=_checkpoint_path(args, "cross"),
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
        architecture=args.architecture,
    )
    print(format_table(
        ["workload", "method", "train MSE", "validation MSE", "gap (val-train)"],
        [
            (workload, method, f"{train:.5f}", f"{val:.5f}", f"{gap:+.5f}")
            for workload, method, train, val, gap in result.summary_rows()
        ],
    ))
    print(format_table(
        ["workload", "breed improvement"],
        [(w, f"{imp:+.1%}") for w, imp in result.improvement_rows()],
    ))
    path = _save_study(args, "cross", result.study)
    return {"experiment": "cross", "runs": len(result.study.runs), "results": str(path)}


def _run_table1(args: argparse.Namespace) -> Dict[str, object]:
    from repro.experiments.table1 import render_table1

    table = render_table1()
    print(table)
    path = _out_dir(args) / "table1.txt"
    path.write_text(table + "\n")
    return {"experiment": "table1", "results": str(path)}


EXPERIMENTS: Dict[str, Experiment] = {
    "fig3a": Experiment("fig3a", "architecture study, Breed vs Random", _run_fig3a, parallel=True),
    "fig3b": Experiment("fig3b", "Breed hyper-parameter study", _run_fig3b, parallel=True),
    "cross": Experiment(
        "cross", "Breed vs Random across every registered workload", _run_cross, parallel=True
    ),
    "fig4": Experiment("fig4", "input-parameter deviation histograms", _run_fig4),
    "fig6": Experiment("fig6", "training-statistics correlation matrix", _run_fig6),
    "overhead": Experiment("overhead", "steering-overhead measurement", _run_overhead),
    "table1": Experiment("table1", "fixed hyper-parameters per study", _run_table1),
}


# ---------------------------------------------------------------------------
# Graceful interruption (SIGINT/SIGTERM) of the long-running paths
# ---------------------------------------------------------------------------


def _install_signal_handlers() -> None:
    """Convert the first SIGINT/SIGTERM into ``KeyboardInterrupt``.

    The long-running CLI paths (experiment studies, ``serve``) catch it and
    shut down cleanly — on-disk checkpoints are already flushed run-by-run,
    so nothing needs to happen *in* the handler.  A second signal falls back
    to the default disposition (hard interrupt/termination), so a wedged
    shutdown can still be escaped.  No-op outside the main thread (tests,
    embedding), where ``signal.signal`` is unavailable.
    """
    if threading.current_thread() is not threading.main_thread():
        return

    def handler(signum: int, frame: object) -> None:
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, handler)
    signal.signal(signal.SIGTERM, handler)


def _write_interrupt_marker(args: argparse.Namespace, experiment: Experiment) -> Path:
    """Record a clean interruption of a study next to its checkpoint files."""
    marker = _out_dir(args) / f"{experiment.name}_{args.scale}.interrupted.json"
    hint = (
        f"python -m repro.cli {experiment.name} --scale {args.scale} --out {args.out} --restore"
        if experiment.parallel
        else f"python -m repro.cli {experiment.name} --scale {args.scale} --out {args.out}"
    )
    marker.write_text(json.dumps({
        "experiment": experiment.name,
        "scale": args.scale,
        "clean": True,
        "resume": hint,
    }, indent=2) + "\n")
    return marker


# ---------------------------------------------------------------------------
# serve — the long-running study service
# ---------------------------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the study service: an HTTP server with a persistent job "
                    "queue, streaming progress, and restart-safe resume "
                    "(see docs/SERVICE.md).",
    )
    parser.add_argument("--root", default="service", metavar="DIR",
                        help="job-store directory; holds every job's queue state, "
                             "progress events, run records and session snapshots "
                             "(default: service/)")
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8517,
                        help="TCP port; 0 picks an ephemeral port, advertised in "
                             "<root>/server.json (default: 8517)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="background study workers draining the queue (default: 1)")
    parser.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                        help="default mid-run session-snapshot period in training "
                             "batches for jobs that do not choose their own "
                             "(default: 25)")
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.cli serve``."""
    from repro.service import DEFAULT_CHECKPOINT_EVERY, StudyService

    args = build_serve_parser().parse_args(argv)
    checkpoint_every = (
        args.checkpoint_every if args.checkpoint_every is not None else DEFAULT_CHECKPOINT_EVERY
    )
    service = StudyService(
        root=args.root,
        host=args.host,
        port=args.port,
        n_workers=args.workers,
        checkpoint_every=checkpoint_every,
    )
    _install_signal_handlers()
    service.start()
    print(f"study service listening on {service.url} (root: {args.root}, "
          f"workers: {args.workers}); Ctrl-C stops cleanly", flush=True)
    try:
        service.wait()
    except KeyboardInterrupt:
        print("shutting down: waiting for workers to reach a run boundary …", flush=True)
    finally:
        service.stop()
    print(f"stopped cleanly; in-flight jobs re-queued and will resume on the next "
          f"`repro serve --root {args.root}`", flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Launch the paper-reproduction experiments through the study engine.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS),
        help="experiment to run (see --list)",
    )
    parser.add_argument("--list", action="store_true", help="list registered experiments and exit")
    parser.add_argument("--scale", default="smoke", choices=sorted(SCALES), help="experiment scale preset")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker count; N > 1 implies --backend process")
    parser.add_argument("--backend", choices=list(BACKENDS), default=None,
                        help="executor backend (default: serial, or process when --jobs > 1; "
                             "shm is an alias of process)")
    parser.add_argument("--out", default="results", metavar="DIR",
                        help="output directory for result JSON and checkpoints (default: results/)")
    parser.add_argument("--resume", default=None, metavar="JSONL",
                        help="JSONL checkpoint of a previous invocation; completed runs are skipped")
    parser.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                        help="snapshot each run's full session state every N training batches "
                             "(crash-safe mid-run checkpointing; see --restore)")
    parser.add_argument("--restore", action="store_true",
                        help="resume this experiment's previous invocation from --out: completed "
                             "runs are spliced from the JSONL checkpoint (implies --resume on the "
                             "default checkpoint path); combine with --checkpoint-every to also "
                             "re-enter partially completed runs from their session snapshots")
    parser.add_argument("--workload", action="append", default=None, metavar="NAME",
                        help="workload registry key the experiment runs against (default: "
                             "heat2d); repeatable for 'cross', which defaults to every "
                             "registered workload")
    parser.add_argument("--architecture", default="mlp", metavar="NAME",
                        help="surrogate-architecture registry key for the study experiments "
                             "(fig3a, fig3b, cross): mlp (default), residual, conv2d, or any "
                             "repro.api.register_architecture key")
    parser.add_argument("--factor", action="append", default=None, metavar="NAME",
                        help="fig3b: restrict to this hyper-parameter (repeatable)")
    parser.add_argument("--hidden", action="append", type=int, default=None, metavar="H",
                        help="fig3a: restrict hidden sizes (repeatable)")
    parser.add_argument("--layers", action="append", type=int, default=None, metavar="L",
                        help="fig3a: restrict layer counts (repeatable)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect repro.telemetry metrics during the experiment and "
                             "write the Prometheus exposition to "
                             "<out>/<experiment>_<scale>.metrics.txt")
    parser.add_argument("--trace", default=None, metavar="DIR",
                        help="write chrome://tracing-compatible JSONL span traces "
                             "(trace-<pid>.jsonl per process) under DIR "
                             "(see docs/OBSERVABILITY.md)")
    return parser


def _list_experiments() -> str:
    rows = [
        (name, "study" if exp.parallel else "single", exp.help)
        for name, exp in sorted(EXPERIMENTS.items())
    ]
    rows.append(("bench", "perf", "benchmark harness (see `bench --help` / --list-scenarios)"))
    rows.append(("serve", "service", "long-running study server (see `serve --help` / docs/SERVICE.md)"))
    rows.append(("doctor", "ops", "diagnose service/campaign/checkpoint residue (see `doctor --help`)"))
    rows.append(("campaign", "study", "resumable DAG-of-studies (see `campaign --help` / docs/CAMPAIGNS.md)"))
    return format_table(["experiment", "kind", "description"], rows)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench":
        # The bench subcommand owns its flags (scenario selection, repeats,
        # compare/threshold) — dispatch before the experiment parser rejects
        # them.  Imported lazily: the harness pulls in heavier modules.
        from repro.bench.cli import bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "serve":
        # Same dispatch pattern for the study service's own flag set.
        return serve_main(argv[1:])
    if argv and argv[0] == "doctor":
        from repro.doctor import doctor_main

        return doctor_main(argv[1:])
    if argv and argv[0] == "campaign":
        from repro.campaign.cli import campaign_main

        return campaign_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print(_list_experiments())
        return 0
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        print("repro: specify an experiment or --list", file=sys.stderr)
        return 2
    experiment = EXPERIMENTS[args.experiment]
    if experiment.parallel and args.restore and args.resume is None:
        # --restore without an explicit --resume continues this invocation's
        # default checkpoint: the JSONL written under --out by the previous,
        # interrupted run of the same experiment and scale.
        args.resume = str(_out_dir(args) / f"{experiment.name}_{args.scale}.runs.jsonl")
    if experiment.parallel and args.restore and args.checkpoint_every is None:
        print(
            "note: --restore without --checkpoint-every splices completed runs only; "
            "repeat --checkpoint-every N to re-enter partially completed runs from "
            "their session snapshots",
            file=sys.stderr,
        )
    if not experiment.parallel:
        ignored = [
            flag
            for flag, value in (
                ("--jobs", args.jobs is not None and args.jobs > 1),
                ("--backend", args.backend in ("process", "shm")),
                ("--resume", args.resume is not None),
                ("--restore", args.restore),
                ("--checkpoint-every", args.checkpoint_every is not None),
            )
            if value
        ]
        if ignored:
            print(
                f"note: {experiment.name} needs full in-process results; "
                f"running serially from scratch ({', '.join(ignored)} ignored)",
                file=sys.stderr,
            )
    if args.metrics or args.trace:
        from repro import telemetry

        telemetry.configure(
            metrics=True if args.metrics else None,
            trace_dir=args.trace,
            process_name=f"repro {experiment.name}",
        )
    _install_signal_handlers()
    try:
        outcome = experiment.run(args)
    except KeyboardInterrupt:
        # Graceful interruption: completed runs are already flushed to the
        # JSONL checkpoint and session snapshots are atomic, so exit cleanly
        # with a marker + resume hint instead of a raw traceback.
        marker = _write_interrupt_marker(args, experiment)
        hint = json.loads(marker.read_text())["resume"]
        print(f"\ninterrupted cleanly — checkpoints are intact (marker: {marker})",
              file=sys.stderr)
        if experiment.parallel:
            print(f"resume with: {hint}", file=sys.stderr)
        return 0
    if args.metrics:
        from repro import telemetry

        path = _out_dir(args) / f"{experiment.name}_{args.scale}.metrics.txt"
        path.write_text(telemetry.metrics().render_prometheus())
        outcome["metrics"] = str(path)
    if args.trace:
        from repro import telemetry

        telemetry.tracer().flush()
        outcome["trace"] = str(args.trace)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
