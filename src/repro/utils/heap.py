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
threshold of twice that.  :func:`trim_heap` hands every free page of the heap
back once (``malloc_trim(0)``), so that a large temporary allocated next
costs the same resident memory whether or not a free block of its size was
left resident.  Where the C library lacks either function they do nothing.
Allocation addresses are not an input of any computation here, so no output
bit depends on them.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "pin_heap", "trim_heap"]

#: glibc's ``mallopt`` parameter numbers (``malloc.h``)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3

#: ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit, and the trim threshold glibc pairs with it
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

_pinned = False


def _libc(name: str, argtypes: list) -> Optional[Callable[..., int]]:
    """The C library's function ``name``, or ``None`` where there is none."""
    try:
        function = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library to load
        return None
    function.argtypes, function.restype = argtypes, ctypes.c_int
    return function


def pin_heap() -> bool:
    """Pin the mmap and trim thresholds (idempotent); ``False`` where ``mallopt`` is absent."""
    global _pinned
    if not _pinned:
        mallopt = _libc("mallopt", [ctypes.c_int, ctypes.c_int])
        if mallopt is None:
            return False
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
        _pinned = True
    return True


def trim_heap() -> bool:
    """Release the heap's free pages to the kernel; ``False`` where ``malloc_trim`` is absent."""
    malloc_trim = _libc("malloc_trim", [ctypes.c_size_t])
    if malloc_trim is None:
        return False
    malloc_trim(0)
    return True
