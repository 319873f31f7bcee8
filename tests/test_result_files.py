"""Result files are replaced whole: a write that fails midway keeps the old file.

Each writer below replaces a file a user (or a resume) reads back: the CLI's
experiment summary, ``table1.txt``, the interrupt marker, the ``--metrics``
exposition, a ``repro bench`` report and a chrome trace.  The injected fault
lands half the bytes of every write into the target, then fails like a full
disk; whatever way the writer opens and fills the file, the previous content
must survive and no temp file may be left behind.
"""

from __future__ import annotations

import argparse
import errno
import os
from pathlib import Path

import pytest

from repro import cli
from repro.bench.runner import write_report
from repro.telemetry.tracing import to_chrome
from repro.utils.durable import AppendLog
from repro.workflow.results import StudyResults


def _disk_full() -> OSError:
    return OSError(errno.ENOSPC, "no space left on device")


@pytest.fixture
def tear_writes_to(monkeypatch):
    """``tear_writes_to(name)`` tears every write into ``name`` or a temp sibling of it."""

    def install(name: str) -> None:
        real_open, real_write, real_write_text = os.open, os.write, Path.write_text
        torn = set()

        def tracking_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            if Path(path).name.startswith(name):
                torn.add(fd)
            else:
                torn.discard(fd)
            return fd

        def half_then_disk_full(fd, data):
            if fd not in torn:
                return real_write(fd, data)
            real_write(fd, bytes(data[: len(data) // 2]))
            raise _disk_full()

        def torn_write_text(self, data, *args, **kwargs):
            if not self.name.startswith(name):
                return real_write_text(self, data, *args, **kwargs)
            with open(self, "w") as stream:
                stream.write(data[: len(data) // 2])
            raise _disk_full()

        monkeypatch.setattr(os, "open", tracking_open)
        monkeypatch.setattr(os, "write", half_then_disk_full)
        monkeypatch.setattr(Path, "write_text", torn_write_text)

    return install


@pytest.fixture
def telemetry_reset():
    yield
    from repro import telemetry

    telemetry.disable()


def _cli_args(out: Path) -> argparse.Namespace:
    return argparse.Namespace(out=str(out), scale="smoke")


def _synthetic_report() -> dict:
    from repro.bench import BENCH_SCHEMA_VERSION

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_unix": 1_700_000_000.0,
        "env": {
            "python": "3.11.0", "numpy": "2.0.0", "scipy": "1.14.0", "platform": "test",
            "machine": "x86_64", "cpu_count": 1, "git_sha": None,
        },
        "settings": {"repeats": 1, "warmup": 0},
        "results": [{
            "name": "a/x", "group": "a", "units": "steps", "n_units": 10, "repeats": 1,
            "warmup": 0, "wall_times": [0.01], "best_seconds": 0.01, "mean_seconds": 0.01,
            "units_per_second": 1000.0,
        }],
    }


def _chrome_trace(tmp_path: Path) -> None:
    spans = tmp_path / "spans.jsonl"
    AppendLog(spans).append('{"name": "s", "ph": "X", "ts": 0, "dur": 1}')
    to_chrome(spans, tmp_path / "chrome.json")


WRITERS = {
    "summary": (
        "fig4_smoke.json",
        lambda tmp: cli._save(_cli_args(tmp), "fig4", StudyResults(study="fig4"), {"a": 1.0}),
    ),
    "table1": ("table1.txt", lambda tmp: cli._run_table1(_cli_args(tmp))),
    "interrupt_marker": (
        "fig3b_smoke.interrupted.json",
        lambda tmp: cli._write_interrupt_marker(_cli_args(tmp), cli.EXPERIMENTS["fig3b"]),
    ),
    "metrics": (
        "fig3b_smoke.metrics.txt",
        lambda tmp: cli.main(["fig3b", "--factor", "sigma", "--out", str(tmp), "--metrics"]),
    ),
    "bench_report": ("BENCH.json", lambda tmp: write_report(_synthetic_report(), tmp / "BENCH.json")),
    "chrome_trace": ("chrome.json", _chrome_trace),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failure_mid_write_keeps_the_previous_file(
    writer, tmp_path, tear_writes_to, telemetry_reset, capsys
):
    name, write = WRITERS[writer]
    write(tmp_path)  # the first write succeeds: every other file it needs now exists
    target = tmp_path / name
    target.write_text("previous")
    before = sorted(p.name for p in tmp_path.iterdir())
    tear_writes_to(name)
    with pytest.raises(OSError, match="no space left"):
        write(tmp_path)
    assert target.read_text() == "previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
