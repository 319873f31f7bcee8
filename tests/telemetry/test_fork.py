"""A forked study worker must not inherit a telemetry lock held by another thread.

The service forks process-backend study workers from a worker thread while
its HTTP threads read the registry (``/v1/metrics``).  A lock held at the
fork is copied held, with no thread in the child to release it, so the
child would block at its first counter or span.  The driver runs in a
subprocess with a timeout, so that case fails instead of hanging the suite.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

_DRIVER = textwrap.dedent("""
    import json, os, sys, threading
    from repro import telemetry
    from repro.api import OnlineTrainingConfig
    from repro.workflow.study import StudyRunner

    config, which, trace_dir = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
    telemetry.configure(metrics=True, trace_dir=trace_dir)
    lock = telemetry.metrics()._lock if which == "metrics" else telemetry.tracer()._lock

    # Another thread holds the lock at every fork: the before-fork hook asks
    # it to take the lock, the parent's after-fork hook lets it go.
    take, taken, release = threading.Event(), threading.Event(), threading.Event()

    def holder():
        while True:
            take.wait()
            take.clear()
            with lock:
                taken.set()
                release.wait()
                release.clear()

    threading.Thread(target=holder, daemon=True).start()

    def before():
        take.set()
        taken.wait()
        taken.clear()

    os.register_at_fork(before=before, after_in_parent=release.set)
    runner = StudyRunner(
        base_config=OnlineTrainingConfig.from_dict(config), study_name="fork",
        backend="process", max_workers=2,
    )
    results = runner.run_all([{"method": "breed"}, {"method": "random"}])
    print(json.dumps([run.telemetry.get("repro_session_ticks_total", 0) for run in results]))
""")


@pytest.mark.parametrize("which", ["metrics", "tracer"])
def test_a_study_forked_beside_a_held_lock_finishes(which, tiny_run_config, tmp_path):
    script = tmp_path / "driver.py"
    script.write_text(_DRIVER)
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    env.pop("REPRO_METRICS", None)
    env.pop("REPRO_TRACE_DIR", None)
    driver = subprocess.Popen(
        [sys.executable, str(script), json.dumps(tiny_run_config.to_dict()), which,
         str(tmp_path / "trace")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = driver.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail(f"a study worker blocked on the {which} lock it inherited held")
    finally:
        try:
            os.killpg(driver.pid, signal.SIGKILL)  # the driver's workers too
        except ProcessLookupError:
            pass
    assert driver.returncode == 0, stderr
    ticks = json.loads(stdout.splitlines()[-1])
    assert len(ticks) == 2 and all(t > 0 for t in ticks)


_TRACE_DRIVER = textwrap.dedent("""
    import os, sys
    from repro import telemetry

    telemetry.configure(trace_dir=sys.argv[1], process_name="driver")
    tracer = telemetry.tracer()  # cached before the fork, as sessions cache it
    with tracer.span("before.fork"):
        pass  # buffered, not yet on disk
    child = os.fork()
    if child == 0:
        with tracer.span("in.child"):
            pass
        tracer.flush()
        os._exit(0)
    os.waitpid(child, 0)
    tracer.flush()
    print(os.getpid(), child)
""")


def test_a_forked_child_traces_to_its_own_file(tmp_path):
    script = tmp_path / "driver.py"
    script.write_text(_TRACE_DRIVER)
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    env.pop("REPRO_METRICS", None)
    env.pop("REPRO_TRACE_DIR", None)
    done = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "trace")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    driver, child = map(int, done.stdout.split())

    def events(pid):
        lines = (tmp_path / "trace" / f"trace-{pid}.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines]

    # the driver's buffered span is written once, by the driver
    assert [e["name"] for e in events(driver)] == ["process_name", "before.fork"]
    spans = events(child)
    assert [e["name"] for e in spans] == ["process_name", "in.child"]
    assert {e["pid"] for e in spans} == {child}
    assert spans[0]["args"] == {"name": "driver"}
