"""``repro.utils.heap``: a pinned heap keeps a training step's temporaries mapped,
and a trim hands its free pages back.

Each case runs in a fresh interpreter: the thresholds are process state, and
this test process has long since had them raised (or pinned) by others.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's"
)

#: four live (128, 4096) float64 arrays — a training batch's temporaries, 4 MiB
#: each — freed together, fifty times over, after one warm-up round
ROUNDS = """
import resource, sys
import numpy as np
from repro.utils import heap
if sys.argv[1] == "absent":
    heap.ctypes.CDLL = lambda name: object()  # a C library without mallopt
pinned = heap.pin_heap()
def rounds(n):
    for _ in range(n):
        arrays = [np.ones((128, 4096)) for _ in range(4)]
        del arrays
rounds(1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rounds(50)
print(pinned, heap._pinned, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


#: 32 MiB of 4 MiB arrays freed on a pinned heap (below its trim threshold, so
#: they stay resident), then one trim: the MiB it gave back
TRIM = """
import os, sys
import numpy as np
from repro.utils import heap
if sys.argv[1] == "absent":
    heap.ctypes.CDLL = lambda name: object()  # a C library without malloc_trim
heap.pin_heap()
def rss():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
arrays = [np.ones((128, 4096)) for _ in range(8)]
del arrays
before = rss()
print(heap.trim_heap(), (before - rss()) >> 20)
"""


def _run(script: str, mode: str) -> list:
    src = str(Path(repro.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, mode], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def _rounds(mode: str):
    pinned, flag, faults = _run(ROUNDS, mode)
    return pinned == "True", flag == "True", int(faults)


def test_a_pinned_heap_does_not_fault_the_temporaries_back_in():
    pinned, flag, faults = _rounds("pin")
    assert pinned and flag
    assert faults < 1_000  # unpinned: ~100 000, every round trimmed and re-faulted


def test_without_mallopt_the_pin_is_a_no_op():
    pinned, flag, faults = _rounds("absent")
    assert not pinned and not flag
    assert faults > 10_000  # glibc's own dynamic thresholds, as if never called


def test_pinning_is_idempotent():
    from repro.utils import heap

    assert heap.pin_heap() and heap.pin_heap() and heap._pinned
    assert heap.TRIM_THRESHOLD == 2 * heap.MMAP_THRESHOLD == 64 << 20


def test_a_trim_gives_the_free_heap_back():
    trimmed, released_mib = _run(TRIM, "trim")
    assert trimmed == "True"
    assert int(released_mib) >= 24  # kept resident by the pinned trim threshold until now


def test_without_malloc_trim_the_trim_is_a_no_op():
    assert _run(TRIM, "absent")[0] == "False"
