#!/usr/bin/env python3
"""The repo benchmark: four cold-start workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py                      # every workload, untraced + traced
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --aa                 # two sets of runs of the same code

Every workload runs in a fresh subprocess (``child.py``), timed by this
process from spawn until the child has exited with its result on disk.
End-to-end metrics come from an untraced child; ``--trace 1`` runs a second,
traced child for the per-layer metrics and checks that tracing changed no
output.  With ``--workload`` the last line of standard output is the one JSON
object ``BENCHMARK.json``'s contract asks for; a failed check exits non-zero.
See ``README.md`` beside this file for the metric glossary.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: scratch space of running children; removed after every measurement
WORK = ROOT / ".bench_e2e"

#: extra set-up-only children per run (``setup_s`` is the median over these
#: and the measured child).  ``paper_heat2d`` pays 11 s of deterministic
#: validation-set build per set-up, so it is sampled once.
SETUP_REPEATS = {"paper_heat2d": 0, "stream_heat2d": 4, "study_grid": 4, "service_jobs": 4}

#: counts that must repeat exactly between two runs of the same code and seed
EXACT_COUNTS = (
    "session.ticks",
    "melissa.samples_received",
    "melissa.samples_evicted",
    "melissa.transport_bytes",
    "breed.steerings",
    "nn.tape_nodes",
    "service.events_per_job",
)

STUDY_BACKENDS = ("serial", "process", "shm")

#: runs per workload in each of ``--aa``'s two sets, as the driver makes them
AA_RUNS = 10


class BenchmarkError(RuntimeError):
    """A child did not produce a result."""


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

#: Every child's pins.  One BLAS thread, so that worker processes and not the
#: BLAS pool use the second core; a fixed hash seed, because set and dict
#: order steer the allocator: unpinned, ``stream_heat2d``'s peak RSS reads
#: 652, 705, 780 or 837 MB on otherwise identical runs.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env(tmp: Path) -> Dict[str, str]:
    """Environment of every child: pinned, ``repro`` telemetry dark."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE.parent)])
    env["TMPDIR"] = str(tmp)
    return env


def git_sha() -> str:
    """Commit of the checkout (``unknown`` outside a git repository)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=5,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> Dict[str, Any]:
    """The report's ``env`` block."""
    return {
        **PINNED,
        "PYTHONPATH": "src",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": git_sha(),
    }


# ---------------------------------------------------------------------------
# Running children
# ---------------------------------------------------------------------------


def spawn(
    workload: str,
    seed: int,
    seconds: float,
    out: Path,
    trace: bool = False,
    setup_only: bool = False,
    shrunk: bool = False,
    events: bool = False,
) -> Dict[str, Any]:
    """Run one child to completion; returns its ``bench.json`` plus ``wall_s``."""
    out.mkdir(parents=True)
    command = [
        sys.executable, "-m", "e2e.child", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--out", str(out),
        "--trace", str(int(trace)),
    ]
    if setup_only:
        command.append("--setup-only")
    if shrunk:
        command.append("--shrunk")
    if events:
        command.append("--events")
    spawned = time.monotonic()
    command += ["--spawned-at", repr(spawned)]
    # The child's own prints go to stderr (descriptor 2, whatever sys.stderr
    # has been replaced with): stdout carries the report only.
    done = subprocess.run(command, cwd=ROOT, env=child_env(out), stdout=2, check=False)
    wall = time.monotonic() - spawned
    result = out / "bench.json"
    if done.returncode != 0 or not result.is_file():
        raise BenchmarkError(f"{workload} child exited {done.returncode} without a result")
    record = json.loads(result.read_text())
    record["wall_s"] = wall
    return record


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    shrunk: bool = False,
    keep: Optional[Path] = None,
) -> Dict[str, Any]:
    """One benchmark run of ``workload``: set-up samples, untraced child, traced child."""
    work = keep if keep is not None else WORK / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        setups = [
            spawn(workload, seed, seconds, work / f"setup{i}", setup_only=True, shrunk=shrunk)
            for i in range(SETUP_REPEATS[workload])
        ]
        untraced = spawn(workload, seed, seconds, work / "untraced", shrunk=shrunk)
        traced = (
            spawn(workload, seed, seconds, work / "traced", trace=True, shrunk=shrunk,
                  events=keep is not None)
            if trace else None
        )
    finally:
        if keep is None:
            shutil.rmtree(work, ignore_errors=True)
            if WORK.exists() and not any(WORK.iterdir()):
                WORK.rmdir()
    setup_samples = [r["stamps"]["ready"] - r["stamps"]["spawned"] for r in (*setups, untraced)]
    run: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "attempted": untraced["attempted"],
        "failures": list(untraced["failures"]),
        "end_to_end": end_to_end(untraced, setup_samples),
        "detail": detail(workload, untraced),
    }
    if traced is not None:
        # nn.tape_nodes is the one count only a traced run can take
        traced_counts = {k: v for k, v in traced["counts"].items() if k != "nn.tape_nodes"}
        same = traced["outputs"] == untraced["outputs"] and traced_counts == untraced["counts"]
        run["attempted"] += traced["attempted"] + 1
        run["failures"] += [f"traced: {f}" for f in traced["failures"]]
        if not same:
            run["failures"].append("tracing changed an output or a count")
        run["per_layer"] = per_layer(workload, traced, untraced)
    return run


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: int, n: int) -> float:
    """The ``q``-th of ``n`` quantile cut points (``q/n`` of the way up)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=n, method="inclusive")[q - 1]


def closure_pct(import_s: float, main_thread_self_s: float, wall_s: float) -> float:
    """Share of a traced run's wall time attributed to a named span, in percent.

    Start-up and imports (spawn until ``repro`` is imported) count as
    ``session.import``; the rest is the self time of the child's main thread.
    What stays unattributed is writing ``bench.json`` and interpreter exit.
    """
    return 100.0 * (import_s + main_thread_self_s) / wall_s


def end_to_end(record: Dict[str, Any], setup_samples: Sequence[float]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run (every workload reports all)."""
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": record["wall_s"],
        "ops_per_s": record["work_units"] / record["measured_s"],
        "op_latency_p50_ms": 1e3 * statistics.median(record["latencies_s"]),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }


def detail(workload: str, record: Dict[str, Any]) -> Dict[str, float]:
    """ISSUE 11's workload-specific end-to-end names, measured untraced.

    ``BENCHMARK.json`` must list metrics every workload reports, so these are
    printed beside the contract metrics rather than gated by it; the same
    quantities are per-layer metrics (``session.*``, ``workflow.*``,
    ``service.*``) in the traced run.
    """
    counts, measured = record["counts"], record["measured_s"]
    if workload in ("paper_heat2d", "stream_heat2d"):
        return {
            "train_iters_per_s": counts["nn.iterations"] / measured,
            "samples_per_s": counts["melissa.samples_received"] / measured,
        }
    if workload == "study_grid":
        return {f"runs_per_s_{b}": s["runs"] / s["wall_s"] for b, s in record["study"].items()}
    latencies = record["latencies_s"]
    return {
        "job_latency_p50_s": statistics.median(latencies),
        "job_latency_p80_s": percentile(latencies, 4, 5),
        "jobs_per_s": len(latencies) / measured,
    }


def per_layer(workload: str, traced: Dict[str, Any], untraced: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    A layer the workload never enters reads 0, or is left out and reported as
    0 by :func:`declared_values`.

    ``*_s`` is the self time of the layer's spans (inclusive where a span is a
    leaf, see ``trace.py``); ``workflow.*`` and ``service.*`` wall, latency
    and exec times are inclusive by definition.
    """
    totals = traced["spans"]["totals"]
    counts = traced["counts"]
    measured = traced["measured_s"]
    stamps = traced["stamps"]

    def self_s(span: str) -> float:
        return totals.get(span, {}).get("self_s", 0.0)

    def count(span: str) -> float:
        return totals.get(span, {}).get("count", 0)

    metrics: Dict[str, float] = {
        "solvers.build_s": self_s("solvers.build"),
        "solvers.step_s": self_s("solvers.step"),
        "solvers.steps": count("solvers.step"),
        "surrogate.valset_build_s": self_s("surrogate.valset_build"),
        "surrogate.valset_bytes": counts.get("surrogate.valset_bytes", 0),
        "surrogate.validation_eval_s": self_s("surrogate.validation_eval"),
        "surrogate.validation_evals": count("surrogate.validation_eval"),
        "melissa.submit_s": self_s("melissa.submit"),
        "melissa.produce_s": self_s("melissa.produce"),
        "melissa.transport_s": self_s("melissa.transport"),
        "melissa.receive_s": self_s("melissa.receive"),
        "melissa.draw_s": self_s("melissa.draw"),
        "nn.forward_s": self_s("nn.forward"),
        "nn.loss_s": self_s("nn.loss"),
        "nn.backward_s": self_s("nn.backward"),
        "nn.optimizer_s": self_s("nn.optimizer"),
        "nn.iterations": count("nn.optimizer"),
        "nn.tape_nodes": counts.get("nn.tape_nodes", 0),
        "breed.observe_s": self_s("breed.observe"),
        "breed.steer_s": self_s("breed.steer"),
        "breed.share_pct": 100.0 * (self_s("breed.observe") + self_s("breed.steer")) / measured,
        "checkpoint.save_s": self_s("checkpoint.save"),
        "checkpoint.saves": count("checkpoint.save"),
        "checkpoint.bytes": traced.get("snapshot_bytes", 0),
        "checkpoint.restore_s": self_s("checkpoint.restore"),
        "session.import_s": stamps["imported"] - stamps["spawned"],
        "session.init_other_s": self_s("session.init_other"),
        "session.orchestration_s": self_s("session.orchestration"),
        "session.result_write_s": self_s("session.result_write"),
        "session.train_iters_per_s": counts.get("nn.iterations", 0) / measured,
        "session.samples_per_s": counts.get("melissa.samples_received", 0) / measured,
        "workflow.input_build_s": self_s("workflow.input_build"),
        "workflow.runs": counts.get("workflow.runs", 0),
    }
    for name in (
        "session.ticks", "melissa.transport_bytes", "melissa.samples_received",
        "melissa.samples_evicted", "melissa.samples_rejected", "melissa.batches",
        "melissa.reuse_mean", "breed.steerings", "breed.resampled", "service.events_per_job",
    ):
        metrics[name] = counts.get(name, 0)

    for backend, stats in traced.get("study", {}).items():
        prefix = f"workflow.{backend}"
        metrics[f"{prefix}.wall_s"] = stats["wall_s"]
        metrics[f"{prefix}.run_s_sum"] = stats["run_s_sum"]
        metrics[f"{prefix}.overhead_s"] = stats["wall_s"] - stats["run_s_sum"] / stats["workers"]
        metrics[f"{prefix}.runs_per_s"] = stats["runs"] / stats["wall_s"]

    service = traced.get("service")
    if service:
        latencies = traced["latencies_s"]
        exec_s = totals["service.exec"]["total_s"] / len(latencies)
        metrics.update({
            "service.start_s": service["start_s"],
            "service.submit_s": statistics.fmean(service["submit_s"]),
            "service.exec_s": exec_s,
            "service.overhead_s": statistics.fmean(latencies) - exec_s,
            "service.dedupe_submit_s": service["dedupe_submit_s"],
            "service.events_read_s": service["events_read_s"],
            "service.stop_s": service["stop_s"],
            "service.store_bytes": service["store_bytes"],
            "service.latency_p50_s": statistics.median(latencies),
            "service.latency_p80_s": percentile(latencies, 4, 5),
            "service.jobs_per_s": len(latencies) / measured,
        })

    metrics.update({
        "trace.harness_s": self_s("trace.harness"),
        "trace.overhead_pct": 100.0 * (traced["wall_s"] / untraced["wall_s"] - 1.0),
        "trace.closure_pct": closure_pct(
            metrics["session.import_s"], traced["spans"]["main_thread_self_s"], traced["wall_s"]
        ),
    })
    return metrics


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def declared_values(values: Dict[str, float], declared: List[Dict[str, Any]]) -> Dict[str, float]:
    """``values`` in ``BENCHMARK.json``'s order; a layer never entered reads 0."""
    names = [m["name"] for m in declared]
    undeclared = set(values) - set(names)
    if undeclared:
        raise BenchmarkError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    return {name: values.get(name, 0) for name in names}


def print_metrics(title: str, values: Dict[str, float], units: Dict[str, str]) -> None:
    print(f"-- {title}")
    for name, value in values.items():
        print(f"{name:32s} {value!r:>24} {units.get(name, '')}")


def units_of(spec: Dict[str, Any]) -> Dict[str, str]:
    units = {m["name"]: m["unit"] for m in (*spec["end_to_end"], *spec["per_layer"])}
    # the workload-specific names of ``detail`` (not contract metrics)
    units.update({
        "train_iters_per_s": "1/s", "samples_per_s": "1/s", "jobs_per_s": "1/s",
        "job_latency_p50_s": "s", "job_latency_p80_s": "s",
        **{f"runs_per_s_{b}": "1/s" for b in STUDY_BACKENDS},
    })
    return units


def print_run(run: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"== {run['workload']} seed={run['seed']}")
    print_metrics("end to end (untraced)", {**run["end_to_end"], **run["detail"]}, units)
    if "per_layer" in run:
        print_metrics("per layer (traced)", run["per_layer"], units)
    failed = len(run["failures"])
    print(f"{'ops_attempted':32s} {run['attempted']:>24} count")
    print(f"{'ops_failed':32s} {failed:>24} count")
    for failure in run["failures"]:
        print(f"FAILED {failure}")


def contract_line(run: Dict[str, Any], spec: Dict[str, Any], trace: bool) -> str:
    """The one JSON object the benchmark contract asks for."""
    values = run["per_layer"] if trace else run["end_to_end"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    return json.dumps({
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    })


# ---------------------------------------------------------------------------
# A/A: two sets of runs of the same code
# ---------------------------------------------------------------------------


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def aa(spec: Dict[str, Any], workloads: Sequence[str], seconds: float) -> bool:
    """Run every workload ``AA_RUNS`` times, twice; report whether the sets agree.

    The rule is the driver's: each set's spread of every end-to-end metric
    (``setup_s`` excepted) stays within the metric's bound, and the second
    set's median is not worse than the first's by more than the bound.  The
    exact counts of a traced run must be equal between the sets.
    """
    samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    exact: Dict[str, Dict[str, Dict[str, float]]] = {}
    ok = True
    for label in ("A", "B"):
        for workload in workloads:
            by_metric = samples.setdefault(workload, {}).setdefault(label, {})
            for seed in range(AA_RUNS):
                run = measure(workload, seed, seconds, trace=(seed == 0))
                ok &= not run["failures"]
                for failure in run["failures"]:
                    print(f"FAILED {label} {workload} seed={seed}: {failure}")
                for name, value in run["end_to_end"].items():
                    by_metric.setdefault(name, []).append(value)
                if seed == 0:
                    exact.setdefault(workload, {})[label] = {
                        name: run["per_layer"][name] for name in EXACT_COUNTS
                    }
                print(f"{label} {workload} seed={seed} " + " ".join(
                    f"{k}={v:.4g}" for k, v in run["end_to_end"].items()), flush=True)
    print(f"{'workload':14s} {'metric':18s} {'median A':>10s} {'median B':>10s} "
          f"{'spread A':>8s} {'spread B':>8s} {'worse by':>8s} {'bound':>6s}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = samples[workload]["A"][name], samples[workload]["B"][name]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
            spreads = (spread(a), spread(b))
            agree = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= agree
            print(f"{workload:14s} {name:18s} {med_a:10.4g} {med_b:10.4g} {spreads[0]:8.2%} "
                  f"{spreads[1]:8.2%} {worse:8.2%} {bound:6.0%} {'ok' if agree else 'DISAGREE'}")
        for name in EXACT_COUNTS:
            a, b = exact[workload]["A"][name], exact[workload]["B"][name]
            ok &= a == b
            print(f"{workload:14s} {name:28s} {a!r} {'==' if a == b else '!='} {b!r}")
    return ok


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload and end with the contract's JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="nominal measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None, choices=(0, 1),
                        help="1: also run traced and report the per-layer metrics")
    parser.add_argument("--aa", action="store_true", help="two sets of runs of the same code")
    parser.add_argument("--keep", type=Path, help="keep the children's files (trace included) here")
    parser.add_argument("--shrunk", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmarks/e2e: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    selected = [args.workload] if args.workload else names

    try:
        if args.aa:
            return 0 if aa(spec, selected, seconds) else 1
        # A bare invocation is the full report: both runs of every workload.
        trace = bool(args.trace) if args.trace is not None else args.workload is None
        units = units_of(spec)
        report = {"env": environment(), "runs": []}
        print("env " + json.dumps(report["env"]))
        failed = 0
        for workload in selected:
            keep = args.keep / workload if args.keep else None
            run = measure(workload, args.seed, seconds, trace=trace, shrunk=args.shrunk, keep=keep)
            if trace:
                run["per_layer"] = declared_values(run["per_layer"], spec["per_layer"])
            report["runs"].append(run)
            print_run(run, units)
            failed += len(run["failures"])
        if args.keep:
            (args.keep / "report.json").write_text(json.dumps(report, indent=1))
        if args.workload:
            print(contract_line(report["runs"][0], spec, trace), flush=True)
        return 1 if failed else 0
    except BenchmarkError as error:
        print(f"benchmarks/e2e: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
