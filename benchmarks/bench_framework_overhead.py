"""Framework behaviour and the "no computational overhead" claim (Section 6).

Two benches:

* ``test_steering_overhead`` runs matched Random and Breed experiments and
  reports the wall-clock cost of the steering machinery (loss-statistics
  bookkeeping + AMIS resampling) against the total run, backing the paper's
  claim that Breed improves generalisation *without computational overhead*.
* ``test_reservoir_throughput`` micro-benchmarks the reservoir's put/sample
  path (Appendix A), the hot loop of the on-line server.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.experiments.overhead import run_overhead
from repro.melissa.reservoir import Reservoir


@pytest.mark.benchmark(group="overhead", min_rounds=1, max_time=1.0, warmup=False)
def test_steering_overhead(benchmark, repro_scale):
    result = benchmark.pedantic(
        run_overhead, kwargs={"scale": repro_scale, "seed": 0}, rounds=1, iterations=1
    )
    summary = result.summary()
    emit(
        f"Section 6 claim — steering overhead ({repro_scale} scale)",
        format_table(
            ["metric", "value"],
            [
                ("Breed steering events", f"{summary['breed_steering_events']:.0f}"),
                ("Breed steering wall-clock (s)", f"{summary['breed_steering_seconds']:.4f}"),
                ("steering seconds per event", f"{summary['steering_seconds_per_event']:.5f}"),
                ("Breed NN iterations", f"{summary['breed_iterations']:.0f}"),
                ("Random final validation MSE", f"{summary['random_final_validation']:.5f}"),
                ("Breed final validation MSE", f"{summary['breed_final_validation']:.5f}"),
            ],
        ),
    )
    assert result.random_run.steering_seconds == 0.0
    assert result.overhead_is_negligible


@pytest.mark.benchmark(group="overhead")
def test_reservoir_throughput(benchmark):
    rng = np.random.default_rng(0)
    fields = np.broadcast_to(rng.random(64 * 64), (4, 64 * 64))
    xs = np.broadcast_to(rng.random(6), (4, 6))

    def workload():
        reservoir = Reservoir(capacity=1000, watermark=100, rng=np.random.default_rng(1))
        accepted = 0
        for i in range(0, 2000, 4):  # a block of four time steps per draw
            accepted += reservoir.put(i % 37, i % 101, xs, fields)
            reservoir.sample_batch(128)
        return accepted

    accepted = benchmark(workload)
    emit(
        "Appendix A — reservoir micro-benchmark",
        f"accepted {accepted} / 2000 samples with capacity 1000, watermark 100, batch 128",
    )
    assert accepted > 0
