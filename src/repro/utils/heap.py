"""The training process keeps its heap.

glibc serves a request of ``M_MMAP_THRESHOLD`` bytes or more with a fresh
mapping, and gives the top of the heap back to the kernel once more than
``M_TRIM_THRESHOLD`` of it is free.  Both start at 128 KiB and rise only when
the process frees a mapped block ("dynamic thresholds").  A training step's
temporaries are a few MiB each (a 128 × 4096 float64 batch is 4 MiB), so a
process that never happens to free a large block trims them away after every
step and page-faults them back in on the next one.

:func:`pin_heap` sets both thresholds, once per process, to the values glibc's
own rule converges to on 64-bit: the mmap threshold's cap, 32 MiB, and a trim
threshold of twice that.  Where the C library has no ``mallopt`` it does
nothing.  Allocation addresses are not an input of any computation here, so
no output bit depends on it.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "pin_heap"]

#: glibc's ``mallopt`` parameter numbers (``malloc.h``)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3

#: ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit, and the trim threshold glibc pairs with it
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

_pinned = False


def _mallopt() -> Optional[Callable[[int, int], int]]:
    """The C library's ``mallopt``, or ``None`` where there is none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library to load
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def pin_heap() -> bool:
    """Pin the mmap and trim thresholds (idempotent); ``False`` where ``mallopt`` is absent."""
    global _pinned
    if not _pinned:
        mallopt = _mallopt()
        if mallopt is None:
            return False
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
        _pinned = True
    return True
