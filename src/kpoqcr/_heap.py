"""Freed heap memory stays in the process.

glibc's malloc serves blocks above M_MMAP_THRESHOLD from fresh mappings and
hands the top of the heap back to the kernel once more than
M_TRIM_THRESHOLD bytes of it are free.  Both start at 128 KiB and rise only
after a large block is freed.  The rate tables and the propagator allocate
and free numpy temporaries of 40 KiB to a few MiB many times, so at the
start values each round faults its pages in again.  The thresholds below,
those glibc's own rule would reach after freeing a 16 MiB block, keep those
pages in the process.
"""
from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD = -1      # mallopt parameter numbers, <malloc.h>
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 16 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

# Whether the C library took both thresholds.
APPLIED = False


def keep_freed_memory() -> bool:
    """Raise both thresholds and record it in `APPLIED`.

    False, and nothing changed, where the C library has no working mallopt
    (anything but glibc); never raises.
    """
    global APPLIED
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    APPLIED = (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
               and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
    return APPLIED
