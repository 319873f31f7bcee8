"""One workload in one fresh process; writes ``bench.json`` into ``--out``.

Spawned by ``run.py`` as ``python -m e2e.child`` (never imported by it), with
``benchmarks/`` and ``src/`` on ``PYTHONPATH``.  The parent passes its own
``time.monotonic()`` at spawn: on Linux that clock is system-wide, so the
child's stamps subtract from it directly.
"""

from __future__ import annotations

import time

MAIN_ENTERED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Optional  # noqa: E402


def _record_spans(tracer: Any) -> Dict[str, Any]:
    main = threading.main_thread().name
    return {
        "totals": tracer.totals(),
        "main_thread_self_s": sum(t["self_s"] for t in tracer.totals(thread=main).values()),
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--shrunk", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--events", action="store_true", help="also write the spans to trace.json")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from e2e import workloads  # numpy, scipy and repro load here

    stamps = {"spawned": args.spawned_at, "main": MAIN_ENTERED, "imported": time.monotonic()}
    tracer = layer_patches = driver_patches = None
    tape: Dict[str, int] = {}
    if args.trace:
        from e2e import trace

        tracer = trace.Tracer(record_events=args.events)
        layer_patches = trace.Patches(tracer)
        driver_patches = trace.Patches(tracer)

    if args.shrunk:
        counts, shape = workloads.SHRUNK_COUNTS[args.workload], workloads.SHRUNK_SHAPE
    else:
        counts, shape = workloads.scaled_counts(args.workload, args.seconds), None
    harness = workloads.Harness(
        seed=args.seed,
        counts=counts,
        out=args.out,
        shape=shape,
        tracer=tracer,
        layer_patches=layer_patches,
        setup_only=args.setup_only,
    )
    body: Dict[str, Any] = {}
    try:
        with harness.span("trace.harness"):
            if args.trace and args.workload == "service_jobs":
                # Smoke-sized jobs are interpreter-bound: a dozen spans per
                # 0.8 ms iteration cost 6 %.  This workload traces the service
                # layer only; the layers beneath are measured by the others.
                trace.install_service_wrappers(driver_patches)
            elif args.trace:
                trace.install_layer_wrappers(layer_patches)
                trace.tape_nodes_of_first_iteration(layer_patches, tape)
                if args.workload == "study_grid":
                    trace.install_workflow_wrappers(driver_patches)
            body = workloads.WORKLOADS[args.workload](harness)
    except workloads.SetupDone:
        pass
    finally:
        if args.trace:
            layer_patches.remove()
            driver_patches.remove()
    harness.stamp("workload_end")

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    body.setdefault("counts", {}).update(tape)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "stamps": {**stamps, **harness.stamps},
        "work_units": harness.work_units,
        "attempted": harness.attempted,
        "failures": harness.failures,
        "peak_rss_kb": usage,
        "spans": _record_spans(tracer) if tracer is not None else None,
        **body,
    }
    (args.out / "bench.json").write_text(json.dumps(record))
    if tracer is not None and args.events:
        (args.out / "trace.json").write_text(json.dumps(tracer.events()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
